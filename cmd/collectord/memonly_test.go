package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMemoryOnlyDaemon pins the lifecycle of the private temp store a
// collectord without -data-dir runs on, on both ways out. The child gets
// its own TMPDIR, so "nothing left" means the whole dir is empty, not
// only the store dir it announced. A clean start announces an existing
// "collectord-" dir inside TMPDIR, and SIGTERM exits 0 and removes it. A
// start that fails after the store is open (the HTTP address is taken)
// exits 1 naming the cause and removes it too. The serving side of such
// a daemon under UDP ingest is TestAPISmoke's drill.
func TestMemoryOnlyDaemon(t *testing.T) {
	bin := buildCollectord(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	emptyTmp := func(when string) {
		t.Helper()
		if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
			t.Fatalf("%s: TMPDIR holds %v (%v), want nothing", when, entries, err)
		}
	}

	proc, _, _ := startCollectord(t, bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	dir, _, _ := strings.Cut(proc.awaitLine("collectord: store ", time.Second), " recovered ")
	if fi, err := os.Stat(dir); dir == "" || err != nil || !fi.IsDir() {
		t.Fatalf("store dir %q from %q: %v", dir, proc.linesCopy(), err)
	}
	if !strings.HasPrefix(dir, tmp+string(os.PathSeparator)+"collectord-") {
		t.Fatalf("store dir %s is not a collectord- dir in TMPDIR %s", dir, tmp)
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
	emptyTmp("after SIGTERM")

	// A failed start: the store is open and the UDP socket bound before
	// the HTTP listener, which finds its address taken.
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0", "-http", busy.Addr().String())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("start on a taken HTTP address: %v, want exit status 1; stderr %q", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "collectord: store ") || !strings.Contains(stderr.String(), "http:") {
		t.Fatalf("start on a taken HTTP address: stdout %q, stderr %q; want the store opened, then an http error", stdout.String(), stderr.String())
	}
	emptyTmp("after a failed start")
}
