package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns every side effect of one run — child processes and temp
// directories — so that any exit path (return, error, signal) leaves
// nothing behind.
type sandbox struct {
	root string // repository root: parent of bench/ and cmd/
	dir  string // this run's scratch directory under <root>/.bench_build

	mu       sync.Mutex
	children []*daemon
	closed   bool
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding both bench/go.mod and cmd/collectord. The
// benchmark is started from the root (go run -C bench .) or from
// bench/ itself.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "bench", "go.mod")) && isDir(filepath.Join(dir, "cmd", "collectord")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a cwatrace checkout: no directory above holds bench/go.mod and cmd/collectord")
		}
		dir = parent
	}
}

func isFile(p string) bool { fi, err := os.Stat(p); return err == nil && fi.Mode().IsRegular() }
func isDir(p string) bool  { fi, err := os.Stat(p); return err == nil && fi.IsDir() }

// newSandbox creates the run directory and arms the signal handler.
func newSandbox() (*sandbox, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	sb := &sandbox{root: root, dir: dir}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: killing children, removing %s\n", s, dir)
		sb.Close()
		os.Exit(130)
	}()
	return sb, nil
}

// Close kills every child still running, waits for each, and removes
// the run directory. Safe to call more than once.
func (sb *sandbox) Close() {
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return
	}
	sb.closed = true
	children := sb.children
	sb.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	os.RemoveAll(sb.dir)
}

// buildDaemons compiles collectord and queryrouterd from the checkout
// into .bench_build/bin. The Go build cache makes a repeat build a
// staleness check; the first build in a fresh cache compiles everything.
func (sb *sandbox) buildDaemons() (collectord, routerd string, err error) {
	bin := filepath.Join(sb.root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/collectord", "./cmd/queryrouterd")
	cmd.Dir = sb.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("building daemons: %v\n%s", err, out.String())
	}
	return filepath.Join(bin, "collectord"), filepath.Join(bin, "queryrouterd"), nil
}

// daemon is one child process with its announced addresses.
type daemon struct {
	name string
	cmd  *exec.Cmd
	udp  string // collectord only
	http string

	mu     sync.Mutex
	stdout []string
	stderr []string

	done    chan struct{} // closed once Wait returned
	waitErr error
}

func (d *daemon) capture(r io.Reader, into *[]string, wg *sync.WaitGroup) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		d.mu.Lock()
		*into = append(*into, sc.Text())
		d.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r) // keep draining past an over-long line
}

// awaitLine polls stdout for a line with the prefix and returns the rest.
func (d *daemon) awaitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		d.mu.Lock()
		for _, line := range d.stdout {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				d.mu.Unlock()
				return strings.TrimSpace(rest), nil
			}
		}
		d.mu.Unlock()
		select {
		case <-d.done:
			return "", fmt.Errorf("%s exited before announcing %q: %v\n%s", d.name, prefix, d.waitErr, d.stderrText())
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s never announced %q\n%s", d.name, prefix, d.stderrText())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.stderr, "\n")
}

// stderrLine returns the first stderr line containing substr.
func (d *daemon) stderrLine(substr string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.stderr {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

// launch starts a child and registers it for cleanup.
func (sb *sandbox) launch(name, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// If the harness itself dies without running Close (SIGKILL), the
	// kernel still takes the children down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return nil, errors.New("sandbox closed")
	}
	if err := cmd.Start(); err != nil {
		sb.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	sb.children = append(sb.children, d)
	sb.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(2)
	go d.capture(stdout, &d.stdout, &wg)
	go d.capture(stderr, &d.stderr, &wg)
	go func() {
		wg.Wait() // Wait closes the pipes; read them dry first
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM (drain + final checkpoint) and waits for the exit.
func (d *daemon) stop(timeout time.Duration) error {
	select {
	case <-d.done:
		return fmt.Errorf("%s had already exited: %v\n%s", d.name, d.waitErr, d.stderrText())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("%s exited uncleanly after SIGTERM: %v\n%s", d.name, d.waitErr, d.stderrText())
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("%s did not drain within %s", d.name, timeout)
	}
}

// kill is the unconditional path: SIGKILL and wait.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// collectordArgs are the flags every collectord in the harness shares;
// they resolve to inputs.acfg (see newInputs).
func collectordArgs(in *inputs, dataDir string, extra ...string) []string {
	args := []string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-workers", "2",
		"-geodb", in.geoPath,
		"-window-hours", strconv.Itoa(in.acfg.WindowHours),
		"-topk", strconv.Itoa(topK),
		"-data-dir", dataDir,
	}
	return append(args, extra...)
}

var controlClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4},
}

// startCollectord launches one node and waits until it is healthy.
func (sb *sandbox) startCollectord(bin string, args []string) (*daemon, error) {
	d, err := sb.launch("collectord", bin, args...)
	if err != nil {
		return nil, err
	}
	const wait = 60 * time.Second // recovery of the year fixture included
	if d.udp, err = d.awaitLine("collectord: ingesting NFv9 on ", wait); err != nil {
		return nil, err
	}
	live, err := d.awaitLine("collectord: live state on http://", wait)
	if err != nil {
		return nil, err
	}
	d.http = strings.TrimSuffix(live, "/snapshot")
	return d, awaitHealthy(d)
}

// startRouter launches queryrouterd over the nodes, in shard order.
func (sb *sandbox) startRouter(bin string, nodes []*daemon) (*daemon, error) {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.http
	}
	d, err := sb.launch("queryrouterd", bin, "-http", "127.0.0.1:0", "-nodes", strings.Join(addrs, ","))
	if err != nil {
		return nil, err
	}
	api, err := d.awaitLine("queryrouterd: v1 API on http://", 30*time.Second)
	if err != nil {
		return nil, err
	}
	d.http = strings.TrimSuffix(api, "/api/v1/snapshot")
	return d, awaitHealthy(d)
}

func awaitHealthy(d *daemon) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, err := httpGet(controlClient, "http://"+d.http+"/api/v1/health")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s at %s never became healthy (status %d, err %v)", d.name, d.http, status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httpGet fetches url and returns status and body.
func httpGet(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ---- /proc accounting ----

// clockTicks is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSeconds reads user+system CPU time of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// parseProcStat extracts utime+stime (fields 14 and 15). The command
// name (field 2) may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %.60q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %.60q", stat)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric cpu times in /proc stat: %.60q", stat)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB reads VmHWM of pid, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the regular files directly under dir (a store's data
// dir is flat).
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}
