package ingest

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/experiments"
	"cwatrace/internal/netflow"
	"cwatrace/internal/sim"
	"cwatrace/internal/streaming"
)

// runQuickSim produces the deterministic quick trace shared by the
// end-to-end tests.
func runQuickSim(t testing.TB) *sim.Result {
	t.Helper()
	res, err := sim.Run(experiments.QuickConfig())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return res
}

// streamTrace replays records through a fresh pipeline and store at the
// given worker count and returns the store's snapshot and the drained
// pipeline's stats. It retries once if loopback UDP dropped datagrams
// (rare, but UDP makes no promises even on localhost); the analytics
// comparison needs a loss-free run.
func streamTrace(t *testing.T, res *sim.Result, workers int) (*streaming.Snapshot, Stats) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		st := storeSink(t, streaming.Config{
			// One spill day beyond the study window: flows opened just
			// before the capture end have First stamps past it.
			WindowHours: entime.StudyHours() + 24,
			DB:          res.GeoDB,
			Model:       res.Model,
			TopK:        10,
		})
		p, err := New(Config{
			Listen:      []string{"127.0.0.1:0"},
			Workers:     workers,
			ShardBuffer: 4096,
			Sink:        st,
		})
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		rs, err := Replay(p.Addrs(), res.Records, ReplayConfig{
			Sources:          4,
			RecordsPerSecond: 60000,
		})
		if err != nil {
			p.Close()
			t.Fatalf("replay: %v", err)
		}
		if rs.Records != len(res.Records) {
			p.Close()
			t.Fatalf("replay sent %d of %d records", rs.Records, len(res.Records))
		}

		// Wait until everything sent has been decoded and drained.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s := p.Stats(); s.Records == uint64(rs.Records) && p.Drained() {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		s := p.Stats()
		if s.Records == uint64(rs.Records) && s.DroppedRecords == 0 {
			if s.SeqGaps != 0 {
				t.Fatalf("no datagram was lost but sequence audit reports %d gaps", s.SeqGaps)
			}
			snap := st.Snapshot()
			snap.Version = 0 // names one store's cut, not the data
			return snap, s
		}
		if attempt >= 2 {
			t.Fatalf("lossy loopback replay after %d attempts: stats=%+v sent=%d", attempt+1, s, rs.Records)
		}
		t.Logf("replay attempt %d lost records (stats=%+v), retrying", attempt+1, s)
	}
}

// TestLoopbackEndToEnd is the subsystem's correctness bar: the streaming
// aggregates computed from the live NFv9/UDP stream must equal the batch
// internal/core analysis of the very same trace — census, the full
// Figure-2 result, per-district rollups and the top-K prefixes — and must
// be identical at any worker count.
func TestLoopbackEndToEnd(t *testing.T) {
	res := runQuickSim(t)

	// Batch reference, straight from the trace.
	kept, census := core.ApplyFilter(res.Records, core.DefaultFilter())
	fig2, err := core.Figure2(kept, res.Curve)
	if err != nil {
		t.Fatal(err)
	}
	// The rollup window spans the whole capture (plus the spill day) so
	// every kept record is covered, like the streaming district counters.
	fig3 := core.Figure3(kept, res.GeoDB, res.Model, entime.StudyStart, entime.StudyEnd.AddDate(0, 0, 1))

	snapshots := make(map[int]*streaming.Snapshot)
	for _, workers := range []int{1, 4} {
		snap, stats := streamTrace(t, res, workers)
		snapshots[workers] = snap
		t.Logf("workers=%d: %d packets, %d records, %d sources", workers, stats.Packets, stats.Records, stats.Sources)

		// Census: the filter ran on the same records, so every count
		// matches exactly.
		if !reflect.DeepEqual(snap.Census, census) {
			t.Errorf("workers=%d census mismatch:\n  stream: %+v\n  batch:  %+v", workers, snap.Census, census)
		}

		// Figure 2, derived through the shared core path.
		streamFig2, err := snap.Figure2(res.Curve)
		if err != nil {
			t.Fatalf("workers=%d snapshot figure2: %v", workers, err)
		}
		if !reflect.DeepEqual(streamFig2, fig2) {
			t.Errorf("workers=%d figure-2 result differs from batch", workers)
			for h := range fig2.Points {
				if fig2.Points[h] != streamFig2.Points[h] {
					t.Errorf("  hour %d: stream %+v batch %+v", h, streamFig2.Points[h], fig2.Points[h])
					break
				}
			}
		}

		// District rollups against Figure 3 (full-trace window).
		wantDistricts := make(map[string]uint64)
		for _, l := range fig3.Loads {
			if l.Flows > 0 {
				wantDistricts[l.District.ID] = uint64(l.Flows)
			}
		}
		gotDistricts := make(map[string]uint64)
		for _, d := range snap.Districts {
			gotDistricts[d.ID] = d.Flows
		}
		if !reflect.DeepEqual(gotDistricts, wantDistricts) {
			t.Errorf("workers=%d district rollup mismatch: got %d districts, want %d", workers, len(gotDistricts), len(wantDistricts))
		}

		// Top-K client prefixes against an independent batch computation.
		want := batchTopPrefixes(kept, 24, 10)
		if !reflect.DeepEqual(snap.TopPrefixes, want) {
			t.Errorf("workers=%d top-K mismatch:\n  stream: %v\n  batch:  %v", workers, snap.TopPrefixes, want)
		}

		// The release-day spike must be detected online.
		if len(snap.Spikes) == 0 {
			t.Errorf("workers=%d: no launch spike detected", workers)
		}
	}

	if !reflect.DeepEqual(snapshots[1], snapshots[4]) {
		t.Error("snapshots differ between 1 and 4 workers")
	}
}

// batchTopPrefixes recomputes the leaderboard independently of the
// streaming implementation.
func batchTopPrefixes(kept []netflow.Record, bits, k int) []streaming.PrefixCount {
	counts := make(map[netip.Prefix]uint64)
	for _, r := range kept {
		if p, err := r.Dst.Prefix(bits); err == nil {
			counts[p]++
		}
	}
	out := make([]streaming.PrefixCount, 0, len(counts))
	for p, n := range counts {
		out = append(out, streaming.PrefixCount{Prefix: p, Flows: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		if c := out[i].Prefix.Addr().Compare(out[j].Prefix.Addr()); c != 0 {
			return c < 0
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
