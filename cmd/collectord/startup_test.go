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

// refusedAtStart starts the daemon on a fresh data dir with args and holds
// it to a start-up refusal: exit 1, stderr naming flag, no store opened.
func refusedAtStart(t *testing.T, bin, flag string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-data-dir", dir, "-listen", "127.0.0.1:0", "-http", ""}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v: %v, want exit status 1; stderr %q", args, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), flag) {
		t.Fatalf("%v: stderr %q does not name %s", args, stderr.String(), flag)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("%v: data dir holds %v (%v), want nothing", args, entries, err)
	}
}

// TestFsyncIntervalMustBePositive starts the daemon under the interval
// fsync policy with a cadence that is not positive. The pipeline runs no
// flush loop then, so the policy would never fsync: the daemon must
// refuse at start-up, exit 1 naming the flag, and open no store.
func TestFsyncIntervalMustBePositive(t *testing.T) {
	bin := buildCollectord(t)
	for _, every := range []string{"0", "-1s"} {
		refusedAtStart(t, bin, "-fsync-interval", "-fsync", "interval", "-fsync-interval", every)
	}
}

// TestNegativeFlagsAreRefused: a negative checkpoint cadence would never
// checkpoint, and a segment size, leaderboard or window that is negative
// or zero would become the default or the stored value without a word.
// Each is refused at start-up, before the store writes a file.
func TestNegativeFlagsAreRefused(t *testing.T) {
	bin := buildCollectord(t)
	for _, row := range [][2]string{
		{"-checkpoint-interval", "-1s"},
		{"-segment-bytes", "-1"},
		{"-topk", "-3"},
		{"-window-hours", "-5"},
		{"-segment-bytes", "0"},
		{"-topk", "0"},
		{"-window-hours", "0"},
	} {
		t.Run(row[0]+"="+row[1], func(t *testing.T) { refusedAtStart(t, bin, row[0], row[:]...) })
	}
}
