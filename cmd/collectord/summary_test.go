package main

import (
	"io"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
)

// TestSummaryCountsPopulatedHours pins the drain summary's hour count: a
// rendering zero-fills the hours between two records a hundred hours
// apart, and only the two that hold a record are populated.
func TestSummaryCountsPopulatedHours(t *testing.T) {
	a := streaming.New(streaming.Config{})
	for _, h := range []int{0, 100} {
		a.Ingest([]netflow.Record{{
			Key: netflow.Key{Src: core.DefaultFilter().ServerPrefixes[0].Addr(), Dst: netip.MustParseAddr("100.64.0.1"),
				SrcPort: netflow.PortHTTPS, DstPort: 50000, Proto: netflow.ProtoTCP},
			Packets: 5,
			Bytes:   800,
			First:   entime.StudyStart.Add(time.Duration(h) * time.Hour),
		}})
	}
	snap := a.Snapshot()
	if len(snap.Hours) != 101 {
		t.Fatalf("the rendering holds %d hours, want 101 (hours 0 to 100)", len(snap.Hours))
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printSummary(ingest.Stats{}, snap)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := "window: 2 populated hours, census kept 2 of 2\n"; !strings.Contains(string(out), want) {
		t.Fatalf("summary:\n%s\nwant the line %q", out, want)
	}
}
