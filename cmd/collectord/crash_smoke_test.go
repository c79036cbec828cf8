package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/experiments"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/sim"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// collectordProc is one running collectord child process.
type collectordProc struct {
	cmd *exec.Cmd

	mu    sync.Mutex
	lines []string
}

// buildCollectord builds the daemon from this checkout into a temp dir
// and returns the binary's path.
func buildCollectord(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "collectord")
	build := exec.Command("go", "build", "-o", bin, "cwatrace/cmd/collectord")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building collectord: %v", err)
	}
	return bin
}

// smokeTrace simulates the drills' capture: the quick experiment
// configuration at a third of its devices (about 7 400 records).
func smokeTrace(t *testing.T) *sim.Result {
	t.Helper()
	cfg := experiments.QuickConfig()
	cfg.Scale *= 3
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// launchCollectord starts the built daemon with its stdout captured
// line by line; callers poll linesCopy (or awaitLine) for the
// announcement prefixes they care about.
func launchCollectord(t *testing.T, bin string, args ...string) *collectordProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &collectordProc{cmd: cmd}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return p
}

// awaitLine polls the captured stdout until a line with the prefix
// appears, returning the trimmed remainder ("" on timeout).
func (p *collectordProc) awaitLine(prefix string, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for _, line := range p.lines {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				p.mu.Unlock()
				return strings.TrimSpace(rest)
			}
		}
		p.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
	}
	return ""
}

// startCollectord launches the built daemon and waits until it prints
// its bound UDP and HTTP addresses.
func startCollectord(t *testing.T, bin string, args ...string) (*collectordProc, string, string) {
	t.Helper()
	p := launchCollectord(t, bin, args...)
	udp := p.awaitLine("collectord: ingesting NFv9 on ", 20*time.Second)
	httpAddr := strings.TrimSuffix(p.awaitLine("collectord: live state on http://", 20*time.Second), "/snapshot")
	if udp == "" || httpAddr == "" {
		t.Fatalf("collectord never announced its addresses; stdout so far: %q", p.linesCopy())
	}
	return p, udp, httpAddr
}

func (p *collectordProc) linesCopy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.lines...)
}

// snapshotBody is what the smoke test compares: the analytics view of
// /api/v1/snapshot and the pipeline counters of /api/v1/stats.
type snapshotBody struct {
	Stats    map[string]any
	Snapshot any
}

// waitForMetric polls /metrics until the named sample reaches at least
// want.
func waitForMetric(t *testing.T, addr, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(body), "\n") {
				fields := strings.Fields(line)
				if len(fields) == 2 && fields[0] == name {
					var v float64
					if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil && v >= want {
						return
					}
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g", name, want)
}

func getSnapshot(t *testing.T, addr string) (snapshotBody, bool) {
	t.Helper()
	var body snapshotBody
	var stats struct {
		Ingest map[string]any `json:"ingest"`
	}
	for path, into := range map[string]any{"/api/v1/snapshot": &body.Snapshot, "/api/v1/stats": &stats} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return snapshotBody{}, false
		}
		err = json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return snapshotBody{}, false
		}
	}
	body.Stats = stats.Ingest
	return body, true
}

// TestCrashRecoverySmoke is the end-to-end SIGKILL drill behind `make
// crash-smoke` and the CI crash-recovery step: start a durable
// collector, stream half a quick-sim trace into it over real UDP,
// SIGKILL it mid-capture (no drain, no final checkpoint), restart it on
// the same data dir and require the recovered /api/v1/snapshot to match
// the pre-kill accounting exactly.
func TestCrashRecoverySmoke(t *testing.T) {
	bin := buildCollectord(t)

	res := smokeTrace(t)
	quarter := res.Records[:len(res.Records)/4]
	second := res.Records[len(res.Records)/4 : len(res.Records)/2]

	dataDir := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-checkpoint-interval", "1500ms",
		"-workers", "4",
	}
	proc, udp, httpAddr := startCollectord(t, bin, args...)

	// First burst, then wait for the periodic checkpoint to fold it, then
	// a second burst that (usually) still sits in the WAL tail when the
	// kill lands — so recovery exercises frames AND WAL replay. The
	// invariant holds either way; the split only widens the coverage.
	if _, err := ingest.Replay([]string{udp}, quarter, ingest.ReplayConfig{
		Sources:          4,
		RecordsPerSecond: 60000,
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	waitForMetric(t, httpAddr, "store_frames", 1)
	if _, err := ingest.Replay([]string{udp}, second, ingest.ReplayConfig{
		Sources:          4,
		RecordsPerSecond: 60000,
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// Wait until the daemon has drained everything it received (UDP may
	// legitimately have dropped some datagrams; the invariant under test
	// is recovery, not loss-freeness).
	var preKill snapshotBody
	stable := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && stable < 3 {
		body, ok := getSnapshot(t, httpAddr)
		if !ok {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if reflect.DeepEqual(body.Snapshot, preKill.Snapshot) {
			stable++
		} else {
			stable = 0
		}
		preKill = body
		time.Sleep(100 * time.Millisecond)
	}
	if stable < 3 {
		t.Fatal("snapshot never stabilized after the replay")
	}
	if preKill.Snapshot == nil {
		t.Fatal("no pre-kill snapshot captured")
	}

	// SIGKILL: no drain, no checkpoint, no flush. Write-through appends
	// mean the OS still has every accounted byte.
	if err := proc.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = proc.cmd.Process.Wait()

	// Restart on the same data dir, with no new traffic.
	proc2, _, httpAddr2 := startCollectord(t, bin, args...)
	defer func() {
		_ = proc2.cmd.Process.Kill()
	}()

	var recovered snapshotBody
	ok := false
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !ok {
		recovered, ok = getSnapshot(t, httpAddr2)
		if !ok {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("restarted collectord never served /api/v1/snapshot")
	}

	if !reflect.DeepEqual(recovered.Snapshot, preKill.Snapshot) {
		pre, _ := json.Marshal(preKill.Snapshot)
		post, _ := json.Marshal(recovered.Snapshot)
		t.Fatalf("recovered snapshot differs from pre-kill accounting\n pre: %.400s\npost: %.400s", pre, post)
	}

	// The recovery really came from disk: the daemon logged what it
	// rebuilt, and the WAL/checkpoint machinery saw the records.
	found := false
	for _, line := range proc2.linesCopy() {
		if strings.Contains(line, "recovered") {
			found = true
			t.Logf("restart: %s", line)
		}
	}
	if !found {
		t.Fatal("restarted collectord printed no recovery summary")
	}
	fmt.Println("crash smoke: recovered snapshot matches pre-kill accounting")
}

// tierDrillRecord fabricates a kept record in hour h from prefix-id id
// (each id owns its own /24), for the multi-day tier store the drill
// builds.
func tierDrillRecord(h int64, id int) netflow.Record {
	at := entime.StudyStart.Add(time.Duration(h) * time.Hour)
	return netflow.Record{
		Key: netflow.Key{
			Src:     core.DefaultFilter().ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1}),
			SrcPort: netflow.PortHTTPS,
			DstPort: uint16(40000 + id%1000),
			Proto:   netflow.ProtoTCP,
		},
		Packets:  3,
		Bytes:    600,
		First:    at,
		Last:     at.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

// longHorizonComparable extracts the semantic fields of a long-horizon
// answer for equality checks: everything except the tier_frames/
// raw_frames source counts, which legitimately shift when the planner
// substitutes raw residual frames for a lost tier frame (the aggregates
// must not).
func longHorizonComparable(t *testing.T, v any) map[string]any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "tier_frames")
	delete(m, "raw_frames")
	return m
}

// queryDayAnswer fetches /api/v1/query?resolution=day over the full
// history from a served collectord and returns the long-horizon block.
func queryDayAnswer(t *testing.T, addr string) (map[string]any, bool) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/api/v1/query?resolution=day")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var body struct {
		Resolution  string         `json:"resolution"`
		LongHorizon map[string]any `json:"long_horizon"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	if body.Resolution != "day" || body.LongHorizon == nil {
		t.Fatalf("day query answered resolution %q, long_horizon nil=%v", body.Resolution, body.LongHorizon == nil)
	}
	delete(body.LongHorizon, "tier_frames")
	delete(body.LongHorizon, "raw_frames")
	return body.LongHorizon, true
}

// TestTierCrashSmoke is the long-horizon half of the crash drill: a
// month of daily-checkpointed history with tier folding on, crashed in
// the one window a SIGKILL mid-tier-fold can leave behind — the fold's
// temp file written but the durable rename not yet landed — then served
// by the real daemon, SIGKILLed again mid-serving, and restarted. The
// invariants: no raw checkpoint frame is ever deleted before the tier
// frame derived from it is durable (so the crash state still holds
// every record), and the full-span day-resolution answer is unchanged
// through every reopen — the planner stitches raw residual frames over
// the lost tier frame and re-derives identical aggregates.
//
// The mid-fold disk state is constructed deterministically (delete the
// newest day tier frame, leave a torn .tmp in its place) rather than
// racing a real SIGKILL against a microsecond fold window; the daemon
// SIGKILL below keeps a real kill in the loop.
func TestTierCrashSmoke(t *testing.T) {
	bin := buildCollectord(t)

	// A month of history, one checkpoint per day, tier folding on: day
	// frames for every closed day, week frames over them.
	const days = 30
	dataDir := t.TempDir()
	st, err := store.Open(dataDir, store.Options{
		Analytics: streaming.Config{WindowHours: days*24 + 48, TopK: 10},
		Sync:      store.SyncNever,
		Tier:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < days; d++ {
		var batch []netflow.Record
		for hh := 0; hh < 3; hh++ {
			for c := 0; c < 4; c++ {
				batch = append(batch, tierDrillRecord(int64(d*24+hh*8), d*4+c))
			}
		}
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	m := st.Metrics()
	if m.TierFramesDay == 0 || m.TierFramesWeek == 0 {
		t.Fatalf("tier folding never ran: %d day / %d week frames", m.TierFramesDay, m.TierFramesWeek)
	}
	expectedRes, err := st.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	if expectedRes.LongHorizon == nil {
		t.Fatal("pre-crash day query carried no long-horizon answer")
	}
	expected := longHorizonComparable(t, expectedRes.LongHorizon)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The raw checkpoint frames on disk before the crash: tier folds are
	// additive, so every one of them must still be there afterwards.
	rawBefore, err := filepath.Glob(filepath.Join(dataDir, "ckpt-*.ck"))
	if err != nil {
		t.Fatal(err)
	}

	// Construct the mid-fold crash state: the newest day tier frame's
	// rename never landed, its torn temp file did.
	dayFrames, err := filepath.Glob(filepath.Join(dataDir, "tier-d-*.tf"))
	if err != nil || len(dayFrames) == 0 {
		t.Fatalf("day tier frames on disk: %d (%v)", len(dayFrames), err)
	}
	sort.Strings(dayFrames)
	newest := dayFrames[len(dayFrames)-1]
	torn, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest+".tmp", torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
	rawAfter, err := filepath.Glob(filepath.Join(dataDir, "ckpt-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rawBefore, rawAfter) {
		t.Fatalf("raw frame set changed across the simulated crash:\n before %v\n after %v", rawBefore, rawAfter)
	}

	// Reopen through the real daemon and require the identical answer.
	args := []string{
		"-listen", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-checkpoint-interval", "1s",
		// The stored meta pins the analytics window; the daemon must be
		// configured to match or store.Open refuses the dir.
		"-window-hours", fmt.Sprint(days*24 + 48),
	}
	proc, _, httpAddr := startCollectord(t, bin, args...)
	var got map[string]any
	ok := false
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !ok {
		got, ok = queryDayAnswer(t, httpAddr)
		if !ok {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("restarted collectord never served the day-resolution query")
	}
	if !reflect.DeepEqual(got, expected) {
		gb, _ := json.Marshal(got)
		eb, _ := json.Marshal(expected)
		t.Fatalf("post-crash day answer differs:\n got %.600s\nwant %.600s", gb, eb)
	}

	// A real SIGKILL mid-serving (the 1s checkpoint ticker may be mid-
	// fold re-deriving the lost frame), then one more restart: still the
	// same answer.
	if err := proc.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = proc.cmd.Process.Wait()
	proc2, _, httpAddr2 := startCollectord(t, bin, args...)
	defer func() { _ = proc2.cmd.Process.Kill() }()
	ok = false
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !ok {
		got, ok = queryDayAnswer(t, httpAddr2)
		if !ok {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("twice-restarted collectord never served the day-resolution query")
	}
	if !reflect.DeepEqual(got, expected) {
		gb, _ := json.Marshal(got)
		eb, _ := json.Marshal(expected)
		t.Fatalf("second post-crash day answer differs:\n got %.600s\nwant %.600s", gb, eb)
	}
	fmt.Println("tier crash smoke: long-horizon answer survived a mid-fold crash and a daemon SIGKILL unchanged")
}
