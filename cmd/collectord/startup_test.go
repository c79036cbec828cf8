package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestFsyncIntervalMustBePositive starts the daemon under the interval
// fsync policy with a cadence that is not positive. The pipeline runs no
// flush loop then, so the policy would never fsync: the daemon must
// refuse at start-up, exit 1 naming the flag, and open no store.
func TestFsyncIntervalMustBePositive(t *testing.T) {
	bin := buildCollectord(t)
	for _, every := range []string{"0", "-1s"} {
		dir := t.TempDir()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, "-data-dir", dir, "-fsync", "interval", "-fsync-interval", every,
			"-listen", "127.0.0.1:0", "-http", "")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-fsync-interval %s: %v, want exit status 1; stderr %q", every, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-fsync-interval") {
			t.Fatalf("-fsync-interval %s: stderr %q does not name the flag", every, stderr.String())
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("-fsync-interval %s: data dir holds %v (%v), want nothing", every, entries, err)
		}
	}
}
