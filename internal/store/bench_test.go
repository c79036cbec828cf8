package store

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// benchBatch builds one export-sized batch landing in hour h.
func benchBatch(h, salt, n int) []netflow.Record {
	batch := make([]netflow.Record, n)
	for i := range batch {
		batch[i] = keptRecord(h, salt*n+i, uint64(400+i))
	}
	return batch
}

// BenchmarkStoreAppend measures the durable append path (encode + CRC +
// write-through + tail fold) per sync policy. The interval policy is the
// production default: fsync rides the pipeline's flush hook, not the
// append path, so it benches like SyncNever. always/group=32 commits 32
// batches per AppendGroup — what a pipeline worker does with a backed-up
// lane — against always committing them one by one: same records, same
// WAL bytes, one write and one fsync per 32 batches.
func BenchmarkStoreAppend(b *testing.B) {
	const perBatch = 25
	for _, c := range []struct {
		name  string
		pol   SyncPolicy
		group int
	}{
		{"never", SyncNever, 1},
		{"always", SyncAlways, 1},
		{"always/group=32", SyncAlways, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Analytics: testConfig(), Sync: c.pol})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			group := make([][]netflow.Record, c.group)
			for i := range group {
				group[i] = benchBatch(1, i, perBatch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.group == 1 {
					err = s.Append(group[0])
				} else {
					err = s.AppendGroup(group)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*c.group*perBatch)/elapsed.Seconds(), "records/s")
			}
		})
	}
}

// BenchmarkQueryRange measures historical range queries against a store
// holding many checkpoint frames: sub-ranges load only the overlapping
// frames, the full range merges everything. The window dimension is the
// live sliding window the store was opened at — the study window, and the
// year-retaining 12 000 hours of the end-to-end harness: a query costs
// its span, so the two read the same.
func BenchmarkQueryRange(b *testing.B) {
	const (
		frames     = 16
		hoursPer   = 3
		batchesPer = 8
		perBatch   = 25
	)
	for _, window := range []int{264, 12000} {
		s, err := Open(b.TempDir(), Options{Analytics: streaming.Config{WindowHours: window}})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		for f := 0; f < frames; f++ {
			for i := 0; i < batchesPer; i++ {
				if err := s.Append(benchBatch(f*hoursPer+i%hoursPer, f*batchesPer+i, perBatch)); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		origin := s.Config().Origin

		// warm is the steady state (every frame read before, so served from
		// the decoded-frame cache); cold empties the cache before each query,
		// which is what every query cost before the cache and what the first
		// read of a frame after a checkpoint still costs.
		for _, span := range []int{hoursPer, frames * hoursPer / 2, frames * hoursPer} {
			for _, cold := range []bool{true, false} {
				name := fmt.Sprintf("window=%d/span=%dh/warm", window, span)
				if cold {
					name = fmt.Sprintf("window=%d/span=%dh/cold", window, span)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if cold {
							s.frameCache.retain(func(runKey) bool { return false })
						}
						from := origin.Add(time.Duration(i*hoursPer%(frames*hoursPer-span+1)) * time.Hour)
						res, err := s.Query(from, from.Add(time.Duration(span)*time.Hour))
						if err != nil {
							b.Fatal(err)
						}
						if res.Frames == 0 {
							b.Fatal("query selected no frames")
						}
					}
				})
			}
		}
	}

	// A day answer reads the tier and the sketches: a store with tiers on,
	// four days of three-hour frames over 2 000 client /24s that recur
	// from frame to frame, asked for all four days. The three closed days
	// come as day frames; the open day's eight frames are folded and each
	// is one shard of the distinct-prefix and presence sketches.
	const (
		days    = 4
		clients = 2000
	)
	s, err := Open(b.TempDir(), Options{Analytics: streaming.Config{WindowHours: 12000}, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for f := 0; f < days*24/hoursPer; f++ {
		batch := make([]netflow.Record, 0, clients)
		for i := 0; i < clients; i++ {
			c := (i + f*50) % clients // a few new networks a frame
			r := keptRecord(f*hoursPer+i%hoursPer, 0, uint64(400+i%50))
			r.Dst = netip.AddrFrom4([4]byte{100, byte(64 + c>>8), byte(c), 1})
			batch = append(batch, r)
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	origin := s.Config().Origin
	for _, cold := range []bool{true, false} {
		name := "day/span=96h/warm"
		if cold {
			name = "day/span=96h/cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					s.frameCache.retain(func(runKey) bool { return false })
				}
				res, err := s.QueryResolution(origin, origin.Add(days*24*time.Hour), tier.ResolutionDay)
				if err != nil {
					b.Fatal(err)
				}
				if res.LongHorizon == nil || res.LongHorizon.TierFrames != days-1 || res.Frames != 24/hoursPer {
					b.Fatalf("day answer from %d tier and %d raw frames", res.LongHorizon.TierFrames, res.Frames)
				}
			}
		})
	}
}

// BenchmarkSnapshot measures the live view over a year of history: a
// 364-day store of 64 frames, 2 000 client /24s each that recur all year,
// at a 48-hour window. A snapshot folds the frames' cached runs and the
// live tail (here one frame-sized append) at the window, then renders the
// JSON's source (json) or encodes the state a router is shipped (state).
func BenchmarkSnapshot(b *testing.B) {
	const (
		frames  = 64
		days    = 364
		clients = 2000
	)
	s, err := Open(b.TempDir(), Options{Analytics: testConfig(), Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for f := 0; f <= frames; f++ {
		batch := make([]netflow.Record, 0, clients)
		for i := 0; i < clients; i++ {
			day := min(f*days/frames+i%6, days-1)
			r := keptRecord(day*24+i%24, 0, uint64(400+i%50))
			r.Dst = netip.AddrFrom4([4]byte{100, byte(64 + i>>8), byte(i), 1})
			batch = append(batch, r)
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if f < frames {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		render func(*QueryResult) ([]byte, error)
	}{
		{"json", func(r *QueryResult) ([]byte, error) { return json.Marshal(r.Snapshot()) }},
		{"state", func(r *QueryResult) ([]byte, error) {
			st, origin := r.State()
			return st.AppendBinary(nil, origin)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.SnapshotResult()
				if err == nil {
					_, err = c.render(res)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointPastMaxFrames measures what compaction costs once a
// store holds more than the default 64 frames, on a store shaped like the
// harness's 364-day fixture: one checkpoint a day, 2 000 client /24s that
// recur all year, spread over every hour and over the model's districts,
// at a 500-day window. Past 64 frames a checkpoint folds the oldest run
// of frames into one, which leaves 32, and the runs that held one of them
// are dropped, so the next snapshot merges them again; the other
// checkpoints compact nothing. Each iteration appends and checkpoints one
// more day, then takes a snapshot and repeats it; at -benchtime 64x at
// least one compaction falls inside the timed part. It reports the
// compaction's time and bytes per checkpoint (the checkpoint trace's
// store.compact spans and the files they wrote), the whole checkpoint's
// time, and the first snapshot's time and frame-cache misses beside the
// repeat's time.
func BenchmarkCheckpointPastMaxFrames(b *testing.B) {
	const (
		days    = 364
		clients = 2000
	)
	model := geo.Germany()
	dst := func(c int) netip.Addr { return netip.AddrFrom4([4]byte{100, byte(64 + c>>8), byte(c), 1}) }
	var infos []geodb.PrefixInfo
	for c := 0; c < clients; c++ {
		d := model.Districts()[c%len(model.Districts())]
		infos = append(infos, geodb.PrefixInfo{Prefix: netip.PrefixFrom(dst(c), 24).Masked(), RouterID: fmt.Sprintf("R%04d", c), DistrictID: d.ID, ISPName: "Blau"})
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerConfig{Policy: obs.Policy{Slow: time.Nanosecond}})
	dir := b.TempDir()
	s, err := Open(dir, Options{Analytics: streaming.Config{WindowHours: 500 * 24, DB: db, Model: model}, Sync: SyncNever, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	day := func(d int) time.Duration {
		batch := make([]netflow.Record, clients)
		for c := range batch {
			batch[c] = keptRecord(d*24+c%24, 0, uint64(400+c%50))
			batch[c].Dst = dst(c)
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	snapshot := func() time.Duration {
		t0 := time.Now()
		if _, err := s.SnapshotResult(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for d := 0; d < days; d++ {
		day(d)
	}
	snapshot()
	f0 := s.levels[tier.LevelCheckpoint][0]
	b.Logf("%d frames; frame 0 spans hours [%d, %d] and holds %d of %d records",
		len(s.levels[tier.LevelCheckpoint]), f0.MinHour, f0.MaxHour, f0.Records, s.Metrics().FrameRecords)

	var ckpt, compact, cold, warm time.Duration
	var written int64
	var misses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpt += day(days + i)
		for _, sp := range tracer.Traces()[0].Spans {
			if sp.Name == "store.compact" {
				compact += time.Duration(sp.Microns) * time.Microsecond
				st, err := os.Stat(framePath(dir, tier.LevelCheckpoint, uint64(sp.Attrs["frame_seq"].(int64))))
				if err != nil {
					b.Fatal(err)
				}
				written += st.Size()
			}
		}
		before := s.frameCache.misses
		cold += snapshot()
		misses += s.frameCache.misses - before
		warm += snapshot()
	}
	n := float64(b.N)
	b.ReportMetric(float64(compact.Microseconds())/n, "compact_us/ckpt")
	b.ReportMetric(float64(written)/n, "compact_B/ckpt")
	b.ReportMetric(float64(ckpt.Microseconds())/n, "ckpt_us")
	b.ReportMetric(float64(cold.Microseconds())/n, "snap_next_us")
	b.ReportMetric(float64(misses)/n, "snap_next_misses")
	b.ReportMetric(float64(warm.Microseconds())/n, "snap_repeat_us")
}

// TestWarmYearQueryDecodesNothing pins the win where it cannot rot: on a
// 64-frame store holding a year, the first 364-day hour query after the
// cache was emptied reads and decodes every frame and merges them into
// the run that covers them (the 64 frames are one aligned block); the
// repeat reads none (the miss counter stands still), hits the run, and
// allocates under a fifth of the bytes —
// what is left is the merge target and the rendering, which do not grow
// with the frame count. Before frames had a compact form both queries
// cost the same: 64 frames, each rebuilt as three window-sized rings and
// two maps. The frames carry a client table many times the size of their
// hour table, as real ones do: a frame's decode cost is its prefix rows.
// (Measured: 32.8 MB, then 4.4 MB; with the run, 30.3 MB, then 0.67 MB.)
func TestWarmYearQueryDecodesNothing(t *testing.T) {
	const (
		frames      = 64
		days        = 364
		perFrame    = 8000 // clients per frame, the same networks all year
		daysPerStep = 6
	)
	cfg := streaming.Config{WindowHours: days * 24, TopK: 5}
	s := mustOpen(t, t.TempDir(), Options{Analytics: cfg, Sync: SyncNever})
	defer s.Close()
	for f := 0; f < frames; f++ {
		batch := make([]netflow.Record, 0, perFrame)
		for i := 0; i < perFrame; i++ {
			day := min(f*daysPerStep+i%daysPerStep, days-1)
			r := keptRecord(day*24+i%24, 0, uint64(400+i%50))
			r.Dst = netip.AddrFrom4([4]byte{100, byte(64 + i>>8), byte(i), 1}) // one /24 each
			batch = append(batch, r)
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	query := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Query(at(0), at(days*24))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames != frames || len(res.Snapshot().Hours) != days*24 {
			t.Fatalf("year query merged %d frames into %d hours, want %d and %d", res.Frames, len(res.Snapshot().Hours), frames, days*24)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	c := s.frameCache
	c.retain(func(runKey) bool { return false })
	hits, misses := c.hits, c.misses
	cold := query()
	if c.misses-misses != frames+1 || c.hits != hits {
		t.Fatalf("first query: %d misses, %d hits, want %d and 0", c.misses-misses, c.hits-hits, frames+1)
	}
	hits, misses = c.hits, c.misses
	warm := query()
	if c.misses != misses || c.hits-hits != 1 {
		t.Fatalf("repeat: %d misses, %d hits, want 0 and 1", c.misses-misses, c.hits-hits)
	}
	t.Logf("first query allocated %d bytes, the repeat %d", cold, warm)
	if warm*5 > cold {
		t.Fatalf("repeat allocated %d bytes, the first query %d: want under a fifth", warm, cold)
	}
}
