package main

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cwatrace/internal/experiments"
	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
	"cwatrace/internal/sim"
)

// TestMemoryOnlyDaemon runs collectord without -data-dir, the way it is
// started for a look at live traffic, and exports NFv9 to it over UDP.
// Such a daemon runs a store like any other, in a private temp dir: the
// range query answers 200 with an ETag, every snapshot 200 under ingest
// carries an ETag, a 304 comes back once ingest is at rest, /metrics
// carries the store's families and lints clean, and the temp dir is gone
// after SIGTERM.
func TestMemoryOnlyDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "collectord")
	build := exec.Command("go", "build", "-o", bin, "cwatrace/cmd/collectord")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building collectord: %v", err)
	}
	cfg := experiments.QuickConfig()
	cfg.Scale *= 3 // demo-quick sized trace
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	proc, udp, httpAddr := startCollectord(t, bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-workers", "2")
	dir, _, _ := strings.Cut(proc.awaitLine("collectord: store ", time.Second), " recovered ")
	if fi, err := os.Stat(dir); dir == "" || err != nil || !fi.IsDir() {
		t.Fatalf("store dir %q from %q: %v", dir, proc.linesCopy(), err)
	}
	base := "http://" + httpAddr

	replayed := make(chan error, 1)
	go func() {
		_, err := ingest.Replay([]string{udp}, res.Records, ingest.ReplayConfig{Sources: 4, RecordsPerSecond: 5000})
		replayed <- err
	}()
	for polls := 0; ; polls++ {
		select {
		case err := <-replayed:
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if polls < 3 {
				t.Fatalf("only %d polls under ingest", polls)
			}
		default:
			for _, path := range []string{"/api/v1/snapshot", "/api/v1/query"} {
				if resp, _ := smokeGet(t, base+path, ""); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
					t.Fatalf("%s under ingest: status %d, ETag %q", path, resp.StatusCode, resp.Header.Get("ETag"))
				}
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		break
	}

	// At rest: the tag of one poll revalidates the next.
	var tag string
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, _ := smokeGet(t, base+"/api/v1/snapshot", tag)
		if resp.StatusCode == http.StatusNotModified {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 304 at rest: status %d", resp.StatusCode)
		}
		tag = resp.Header.Get("ETag")
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(string(page))
	for _, e := range errs {
		t.Errorf("exposition lint: %v", e)
	}
	for _, name := range []string{"store_frames", "store_tail_records", "ingest_records_total"} {
		if _, ok := exp.Value(name, ""); !ok {
			t.Errorf("/metrics misses %s", name)
		}
	}

	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("collectord exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collectord did not exit after SIGTERM")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("store dir %s still there after SIGTERM: %v", dir, err)
	}
}
