package streaming

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/netflow"
)

// TestIngestZeroAllocSteadyState pins the per-record streaming update at
// zero allocations once the shard is warm: the hour bin claimed, every
// prefix interned. This is the regression guard for the flat-array
// design — a map growing, an interface boxing, or a time.Duration round
// trip reappearing in ingest() fails here, not in a profile weeks later.
// With districts on, the /24s alternate between placed and unplaced, so
// both kinds of resolved row are read from the row in the loop.
func TestIngestZeroAllocSteadyState(t *testing.T) {
	model := geo.Germany()
	for name, cfg := range map[string]Config{
		"no-districts": {},
		"districts":    {DB: clientGeoDB(t, model, 0, 2), Model: model},
	} {
		t.Run(name, func(t *testing.T) {
			a := New(cfg)
			base := entime.StudyStart.Add(time.Hour)
			recs := make([]netflow.Record, 64)
			for i := range recs {
				// Spread clients across several /24s so the run exercises
				// both the last-prefix memo and the interned-index map
				// lookups.
				recs[i] = keptRecord(base.Add(time.Duration(i)*time.Second), client(i*16), uint64(500+i))
			}
			// Two dropped shapes keep the filter-classification path in the loop.
			recs[10].SrcPort = 80
			recs[20].Src, recs[20].Dst = recs[20].Dst, recs[20].Src

			// Warm: claim the bin, intern (and locate) every prefix the run
			// will touch.
			a.Ingest(recs)
			if cfg.DB != nil && a.Snapshot().Located == 0 {
				t.Fatal("warm-up located nothing")
			}

			allocs := testing.AllocsPerRun(100, func() { a.Ingest(recs) })
			if allocs != 0 {
				t.Fatalf("steady-state Ingest of %d records allocated %.1f times per run, want 0", len(recs), allocs)
			}
		})
	}
}

// TestSnapshotRangeAllocatesRequestedHoursOnly pins the cost of a short
// range on a long window: the series is sized for the hours asked for,
// so a one-day range of a year of hourly bins allocates a small fraction
// of what rendering the year does.
func TestSnapshotRangeAllocatesRequestedHoursOnly(t *testing.T) {
	const hours = 364 * 24
	a := New(Config{WindowHours: hours})
	for h := 0; h < hours; h += 24 {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 500)})
	}
	from := entime.StudyStart.Add(100 * 24 * time.Hour)
	bytesPerRun := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	day := bytesPerRun(func() { a.SnapshotRange(from, from.Add(24*time.Hour)) })
	year := bytesPerRun(func() { a.Snapshot() })
	if s := a.SnapshotRange(from, from.Add(24*time.Hour)); len(s.Hours) != 24 || cap(s.Hours) != 24 {
		t.Fatalf("one-day range rendered %d hours in a slice of %d, want 24 in 24", len(s.Hours), cap(s.Hours))
	}
	if day*10 > year {
		t.Fatalf("one-day range allocated %d bytes, the full year %d: want under a tenth", day, year)
	}
}

// allocBytes is the heap bytes one call of fn allocates, averaged.
func allocBytes(fn func()) uint64 {
	const runs = 20
	fn() // warm: a lazily built table is not fn's cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestShardCostsItsSpanNotItsWindow pins what a shard holding one record
// costs: the same at a day's window as at over a year's — the series
// holds the hours it has, not the window — and so does restoring a
// one-bin state whatever window it declares.
func TestShardCostsItsSpanNotItsWindow(t *testing.T) {
	const slack = 512
	near := func(a, b uint64) bool { return max(a, b)-min(a, b) <= slack }
	rec := []netflow.Record{keptRecord(entime.StudyStart.Add(100*time.Hour), client(1), 500)}
	var first uint64
	for _, window := range []int{24, 12000, 17568} {
		cfg := Config{WindowHours: window}
		got := allocBytes(func() {
			a := New(cfg)
			a.Ingest(rec)
			a.Detach(time.Time{}, time.Time{})
			if _, err := a.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("window %d: %d bytes", window, got)
		if window == 24 {
			first = got
		} else if !near(got, first) {
			t.Errorf("a one-record shard at window %d allocates %d bytes, at window 24 %d", window, got, first)
		}
	}

	restore := func(window int) uint64 {
		st := Stored{window: window, maxHour: 100, bins: []hourBin{{hour: 100, flows: 1, bytes: 500}}}
		blob, err := st.AppendBinary(nil, entime.StudyStart)
		if err != nil {
			t.Fatal(err)
		}
		return allocBytes(func() {
			if _, err := UnmarshalAnalyticsStored(Config{}, blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	if day, most := restore(24), restore(MaxWindowHours); !near(most, day) {
		t.Errorf("restoring a one-bin state declaring window %d allocates %d bytes, declaring 24 %d", MaxWindowHours, most, day)
	}
}

// TestShardSnapshotBuildsNoPrefixTable pins what a lone shard's Snapshot
// costs: its rendering and nothing per prefix row. A shard never bound by
// Intern, holding 4 000 /24s over two days, renders in a few kB — the hours,
// the census, the leaderboard — where a fold of its own state interned
// every row into a fresh PrefixTable on every call (over 300 B a row).
func TestShardSnapshotBuildsNoPrefixTable(t *testing.T) {
	const rows, bar = 4000, 16 << 10
	a := New(Config{WindowHours: 48})
	recs := make([]netflow.Record, rows)
	for i := range recs {
		at := entime.StudyStart.Add(time.Duration(i%48) * time.Hour)
		recs[i] = keptRecord(at, netip.AddrFrom4([4]byte{100, byte(64 + i>>8), byte(i), 1}), 500)
	}
	a.Ingest(recs)
	if s := a.Snapshot(); len(s.Hours) != 48 || s.Census.Kept != rows {
		t.Fatalf("the shard renders %d hours of %d kept records, want 48 of %d", len(s.Hours), s.Census.Kept, rows)
	}
	got := allocBytes(func() { a.Snapshot() })
	t.Logf("%d B a snapshot of %d prefix rows", got, rows)
	if got > bar {
		t.Fatalf("a snapshot of a shard with %d prefix rows allocates %d B, want at most %d", rows, got, bar)
	}
}

// TestMergeCostsItsSpanNotItsWindow pins what a store's merge allocates
// for its hours: the span its states hold. Two two-bin states near hour
// 5 000, merged at a 12 000-hour window, keep the window they report, but
// the fold's three columns hold five hours, not the 5 005 from hour 0 to
// the newest bin that an open query renders.
func TestMergeCostsItsSpanNotItsWindow(t *testing.T) {
	const bar = 4 << 10
	cfg := Config{WindowHours: 12000}
	a := &Stored{window: 24, maxHour: 5001, bins: []hourBin{{hour: 5000, flows: 1, bytes: 10}, {hour: 5001, flows: 2, bytes: 20}}}
	b := &Stored{window: 24, maxHour: 5004, bins: []hourBin{{hour: 5003, flows: 3, bytes: 30}, {hour: 5004, flows: 4, bytes: 40}}}
	st := Merge(cfg, a, b)
	if st.window != 12000 || st.maxHour != 5004 || len(st.bins) != 4 || st.bins[0].hour != 5000 || st.bins[3] != b.bins[1] {
		t.Fatalf("merged window %d ending at %d, bins %+v", st.window, st.maxHour, st.bins)
	}
	got := allocBytes(func() { Merge(cfg, a, b) })
	t.Logf("%d B a merge", got)
	if got > bar {
		t.Fatalf("merging two two-bin states at window %d allocates %d B, want at most %d", cfg.WindowHours, got, bar)
	}
}
