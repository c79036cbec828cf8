package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestNegativeFlagsAreRefused: a leaderboard size or per-shard timeout
// that is negative or zero would become the default without a word. Each is refused at
// start-up: exit 1, naming the flag.
func TestNegativeFlagsAreRefused(t *testing.T) {
	bin := buildBinary(t, "cwatrace/cmd/queryrouterd")
	for _, row := range [][2]string{{"-topk", "-3"}, {"-timeout", "-1s"}, {"-topk", "0"}, {"-timeout", "0"}} {
		t.Run(row[0]+"="+row[1], func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-nodes", "127.0.0.1:1", "-http", "127.0.0.1:0", row[0], row[1])
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), row[0]) {
				t.Fatalf("%v: %v, want exit status 1 naming the flag; stderr %q", row, err, stderr.String())
			}
		})
	}
}
