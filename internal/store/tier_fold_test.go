package store

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// TestTierFoldRefusesAFrameItsCodecCannotCarry: a checkpoint state may
// list a district id of up to 65 535 bytes, a tier frame keeps the length
// in one byte. The fold of a day whose state holds a longer id used to
// write a tier-d file that DecodeFrame refused, and the next Open with it;
// now the fold fails where the frame is built — the checkpoint before it
// has committed, nothing is written, every later fold fails the same way
// and says so, and the store reopens and answers from its raw frames.
// Beside it, the one consumer of store_tier_fold_seconds: the family
// observes once per tier frame written, and not for a fold that wrote
// none.
func TestTierFoldRefusesAFrameItsCodecCannotCarry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Metrics: obs.NewRegistry()})
	written := func() int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "tier-*.tf"))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.om.tierFoldSeconds.Count(); got != uint64(len(files)) {
			t.Fatalf("store_tier_fold_seconds observed %d folds, %d tier frames are on disk", got, len(files))
		}
		return len(files)
	}
	fillDay(t, s, 0)
	fillDay(t, s, 1)
	if written() != 1 {
		t.Fatalf("%d tier frames after day 1 closed day 0, want 1", written())
	}

	// Day 2's tail is told of the district no sidecar can name any more
	// (geodb.Read refuses it): what a state written before that, or by
	// hand, can still hold.
	if err := s.Append([]netflow.Record{keptRecord(2*24, 7, 100)}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.tail.Merge(streaming.FromSnapshot(&streaming.Snapshot{
		Origin:      s.cfg.Origin,
		WindowHours: s.cfg.WindowHours,
		Districts:   []streaming.DistrictCount{{ID: strings.Repeat("x", 300), Flows: 1}},
		Located:     1,
	}))
	s.mu.Unlock()
	if err := s.Checkpoint(); err != nil { // folds day 1, which is sound
		t.Fatal(err)
	}
	if written() != 2 {
		t.Fatalf("%d tier frames after day 2 closed day 1, want 2", written())
	}

	if err := s.Append([]netflow.Record{keptRecord(3*24, 8, 100)}); err != nil {
		t.Fatal(err)
	}
	err := s.Checkpoint() // commits day 3's frame, then fails to fold day 2
	if err == nil || !strings.Contains(err.Error(), "too long for a frame") {
		t.Fatalf("checkpoint over an unencodable day fold: %v", err)
	}
	if m := s.Metrics(); m.Checkpoints != 4 || m.TierFramesDay != 2 || m.TailRecords != 0 {
		t.Fatalf("after the failed fold: %d checkpoints, %d day frames, %d tail records", m.Checkpoints, m.TierFramesDay, m.TailRecords)
	}
	if written() != 2 {
		t.Fatalf("the failed fold left %d tier frames on disk, want 2", written())
	}
	want := snapJSON(t, s.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if got := snapJSON(t, s.Snapshot()); got != want {
		t.Fatalf("reopened store serves\n%s\nwant\n%s", got, want)
	}
	res, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswerExact(t, s, res, tier.ResolutionDay)
	if res.LongHorizon.TierFrames != 2 || res.LongHorizon.RawFrames != 2 {
		t.Fatalf("day answer from %d tier and %d raw frames, want 2 and 2", res.LongHorizon.TierFrames, res.LongHorizon.RawFrames)
	}
	// The answer lists the district; only the form a router is sent cannot.
	if _, err := res.Frame(); err == nil {
		t.Fatal("the unencodable answer rendered a frame")
	}
}
