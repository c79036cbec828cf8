package streaming

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
)

// keptRecord fabricates a record the paper's filter keeps: CWA server to
// an IPv4 client, tcp/443, downstream.
func keptRecord(t time.Time, client netip.Addr, bytes uint64) netflow.Record {
	f := core.DefaultFilter()
	src := f.ServerPrefixes[0].Addr()
	return netflow.Record{
		Key: netflow.Key{
			Src:     src,
			Dst:     client,
			SrcPort: netflow.PortHTTPS,
			DstPort: 50000,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  5,
		Bytes:    bytes,
		First:    t,
		Last:     t.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

func client(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)})
}

func TestFilterCensusMatchesBatch(t *testing.T) {
	recs := []netflow.Record{
		keptRecord(entime.StudyStart.Add(time.Hour), client(1), 1000),
		// Upstream (client to server): dropped.
		func() netflow.Record {
			r := keptRecord(entime.StudyStart.Add(time.Hour), client(2), 500)
			r.Src, r.Dst = r.Dst, r.Src
			r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
			return r
		}(),
		// Wrong port: dropped.
		func() netflow.Record {
			r := keptRecord(entime.StudyStart.Add(2*time.Hour), client(3), 500)
			r.SrcPort = 80
			return r
		}(),
	}
	a := New(Config{})
	a.Ingest(recs)
	snap := a.Snapshot()

	_, want := core.ApplyFilter(recs, core.DefaultFilter())
	if !reflect.DeepEqual(snap.Census, want) {
		t.Fatalf("census %+v, want %+v", snap.Census, want)
	}
}

func TestSlidingWindowEvictsAndCountsLate(t *testing.T) {
	cfg := Config{WindowHours: 4}
	a := New(cfg)

	// Hours 0,1,2,3 fill the ring.
	for h := 0; h < 4; h++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	// Hour 5 slides the window to [2..5], evicting hours 0 and 1.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(5*time.Hour), client(5), 100)})
	// A record for hour 1 is now late.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(1), 100)})
	// As is anything before the origin — including less than an hour
	// before it, where naive duration division would truncate to bucket 0.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-time.Hour), client(9), 100)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-30*time.Minute), client(10), 100)})

	snap := a.Snapshot()
	if snap.Late != 3 {
		t.Fatalf("late = %d, want 3", snap.Late)
	}
	if snap.SeriesStart != 2 || len(snap.Hours) != 4 {
		t.Fatalf("window [%d +%d], want [2 +4]", snap.SeriesStart, len(snap.Hours))
	}
	wantFlows := []float64{1, 1, 0, 1} // hours 2,3,4(empty),5
	for i, p := range snap.Hours {
		if p.Flows != wantFlows[i] {
			t.Fatalf("hour %d flows = %v, want %v", p.Hour, p.Flows, wantFlows[i])
		}
	}
	// The census still counted the late records as kept: they passed the
	// filter, only the window had moved on.
	if snap.Census.Kept != 8 {
		t.Fatalf("kept = %d, want 8", snap.Census.Kept)
	}
}

func TestSpikeDetection(t *testing.T) {
	cfg := Config{SpikeHistory: 3, SpikeFactor: 3, SpikeMinFlows: 5}
	a := New(cfg)
	// Flat baseline of 2 flows/hour for 3 hours, then a 12-flow hour.
	n := 0
	add := func(h, count int) {
		for i := 0; i < count; i++ {
			a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(n), 100)})
			n++
		}
	}
	add(0, 2)
	add(1, 2)
	add(2, 2)
	add(3, 12)

	snap := a.Snapshot()
	if len(snap.Spikes) != 1 {
		t.Fatalf("spikes = %+v, want exactly one", snap.Spikes)
	}
	s := snap.Spikes[0]
	if s.Hour != 3 || s.Flows != 12 || s.Baseline != 2 || s.Ratio != 6 {
		t.Fatalf("spike = %+v", s)
	}
}

func TestTopPrefixesDeterministicOrder(t *testing.T) {
	a := New(Config{TopK: 2})
	at := entime.StudyStart.Add(time.Hour)
	// Three /24s: 203.0.113.x twice, 100.64.0.x twice, 100.64.1.x once.
	a.Ingest([]netflow.Record{
		keptRecord(at, netip.AddrFrom4([4]byte{203, 0, 113, 1}), 1),
		keptRecord(at, netip.AddrFrom4([4]byte{203, 0, 113, 2}), 1),
		keptRecord(at, netip.AddrFrom4([4]byte{100, 64, 0, 1}), 1),
		keptRecord(at, netip.AddrFrom4([4]byte{100, 64, 0, 2}), 1),
		keptRecord(at, netip.AddrFrom4([4]byte{100, 64, 1, 1}), 1),
	})
	snap := a.Snapshot()
	if len(snap.TopPrefixes) != 2 {
		t.Fatalf("topk = %+v", snap.TopPrefixes)
	}
	// Tie at 2 flows: the lower address wins deterministically.
	if snap.TopPrefixes[0].Prefix.String() != "100.64.0.0/24" || snap.TopPrefixes[1].Prefix.String() != "203.0.113.0/24" {
		t.Fatalf("topk order = %v", snap.TopPrefixes)
	}
}

// TestTopPrefixesSelectsTheFullSortsPrefix is the property the heap
// selection rests on: for any table — tied flow counts, mixed families and
// prefix lengths, any interning order — and any K, the leaderboard is the
// first K rows of the whole table sorted by (flows descending, prefix
// order), which is what the full sort used to return.
func TestTopPrefixesSelectsTheFullSortsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 2, 9, 10, 11, 500} {
		c := newCounters()
		for len(c.prefixList) < n {
			var p netip.Prefix
			if rng.Intn(4) == 0 {
				var a [16]byte
				rng.Read(a[12:])
				p = netip.PrefixFrom(netip.AddrFrom16(a), 96+rng.Intn(33))
			} else {
				p = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(rng.Intn(8)), byte(rng.Intn(4))}), 22+rng.Intn(11))
			}
			c.prefixCount[c.internPrefix(p)] = uint64(rng.Intn(4)) // few distinct counts: ties everywhere
		}
		want := make([]PrefixCount, 0, n)
		for i, p := range c.prefixList {
			want = append(want, PrefixCount{Prefix: p, Flows: c.prefixCount[i]})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Flows != want[j].Flows {
				return want[i].Flows > want[j].Flows
			}
			return lessPrefix(want[i].Prefix, want[j].Prefix)
		})
		for _, k := range []int{0, 1, 10, n, n + 1} {
			got := c.topPrefixes(k)
			if got == nil {
				t.Fatalf("n=%d k=%d: nil leaderboard (renders as null, not [])", n, k)
			}
			if !reflect.DeepEqual(got, want[:min(k, n)]) {
				t.Fatalf("n=%d k=%d:\n got %v\nwant %v", n, k, got, want[:min(k, n)])
			}
		}
	}
}

// TestMergeEqualsSerial splits one stream across three shards and asserts
// the merged snapshot is identical to a single shard that saw everything —
// the worker-count-invariance property the pipeline relies on.
func TestMergeEqualsSerial(t *testing.T) {
	cfg := Config{TopK: 5}
	var recs []netflow.Record
	for i := 0; i < 300; i++ {
		at := entime.StudyStart.Add(time.Duration(i%48) * time.Hour / 2)
		recs = append(recs, keptRecord(at, client(i%37), uint64(100+i)))
	}

	serial := New(cfg)
	serial.Ingest(recs)

	shards := []*Analytics{New(cfg), New(cfg), New(cfg)}
	for i, r := range recs {
		shards[i%3].Ingest([]netflow.Record{r})
	}

	merged := New(cfg)
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(merged.Snapshot(), serial.Snapshot()) {
		t.Fatal("merged shards differ from the serial shard")
	}
}

// TestEvictionDropsHoursOlderThanWindow proves the hourly ring forgets:
// after the window slides, hours older than WindowHours are gone from
// the snapshot and their flows are not re-attributed anywhere (only the
// census remembers they were kept).
func TestEvictionDropsHoursOlderThanWindow(t *testing.T) {
	cfg := Config{WindowHours: 4}
	a := New(cfg)
	for h := 0; h < 4; h++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	// Jump far past the window (more than 2x WindowHours), so every ring
	// slot is slid over — including slots whose stale hour index happens
	// to collide modulo WindowHours with a window hour.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(11*time.Hour), client(11), 100)})

	snap := a.Snapshot()
	if snap.SeriesStart != 8 || len(snap.Hours) != 4 {
		t.Fatalf("window [%d +%d], want [8 +4]", snap.SeriesStart, len(snap.Hours))
	}
	var total float64
	for _, p := range snap.Hours {
		total += p.Flows
		if p.Hour < 8 {
			t.Fatalf("hour %d survived eviction", p.Hour)
		}
		// Hours 0..3 filled slots 0..3; hours 8..10 reuse those slots and
		// must read as empty, not as the stale pre-slide counts.
		if p.Hour != 11 && p.Flows != 0 {
			t.Fatalf("evicted slot resurrected as hour %d with %v flows", p.Hour, p.Flows)
		}
	}
	if total != 1 {
		t.Fatalf("window holds %v flows, want exactly the post-slide record", total)
	}
	if snap.Census.Kept != 5 {
		t.Fatalf("census kept %d, want 5 (eviction must not touch the census)", snap.Census.Kept)
	}
}

// TestSnapshotAfterEvictionNeverResurrectsBuckets pins the regression
// the durable store cares about: a snapshot taken after eviction — and a
// marshal/restore round trip of that state — must never bring evicted
// buckets back.
func TestSnapshotAfterEvictionNeverResurrectsBuckets(t *testing.T) {
	cfg := Config{WindowHours: 3}
	a := New(cfg)
	// Two populated hours, then slides that evict them one at a time.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(0), 100)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(1), 100)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(3*time.Hour), client(3), 100)}) // evicts hour 0
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(4*time.Hour), client(4), 100)}) // evicts hour 1

	for _, snap := range []*Snapshot{a.Snapshot(), a.Snapshot()} { // stable across repeated snapshots
		for _, p := range snap.Hours {
			if p.Hour < 2 {
				t.Fatalf("evicted hour %d resurrected: %+v", p.Hour, p)
			}
		}
		if snap.SeriesStart != 2 {
			t.Fatalf("series start %d, want 2", snap.SeriesStart)
		}
	}

	// The serialized state agrees: restoring it yields the same window.
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := restore(t, cfg, blob)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored post-eviction state differs")
	}
	// And a record for an evicted hour stays evicted on both.
	late := []netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(9), 100)}
	a.Ingest(late)
	b.Ingest(late)
	if got := a.Snapshot(); got.Late != b.Snapshot().Late || got.Late != 1 {
		t.Fatalf("late accounting diverged: %d", got.Late)
	}
}

// TestMergeEvictsLikeIngest proves window eviction behaves identically
// whether the slide comes from live records or from merging a shard
// that is ahead in time.
func TestMergeEvictsLikeIngest(t *testing.T) {
	cfg := Config{WindowHours: 4}
	old := New(cfg)
	old.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(0), 100)})
	old.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(1), 100)})
	ahead := New(cfg)
	ahead.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(6*time.Hour), client(6), 100)})

	// Merging the ahead shard into the old one slides the window: hours
	// 0 and 1 fall out and are counted late, exactly as live ingestion
	// of an hour-6 record would have done.
	merged := New(cfg)
	merged.Merge(old)
	merged.Merge(ahead)
	snap := merged.Snapshot()
	if snap.SeriesStart != 3 {
		t.Fatalf("merged window starts at %d, want 3", snap.SeriesStart)
	}
	for _, p := range snap.Hours {
		if p.Hour < 3 && p.Flows != 0 {
			t.Fatalf("merged window resurrected hour %d", p.Hour)
		}
	}

	live := New(cfg)
	live.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(0), 100)})
	live.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(1), 100)})
	live.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(6*time.Hour), client(6), 100)})
	if snap.Late != live.Snapshot().Late {
		t.Fatalf("merge late = %d, live late = %d", snap.Late, live.Snapshot().Late)
	}
}

func TestFigure2RequiresStudyWindow(t *testing.T) {
	a := New(Config{Origin: entime.StudyStart.Add(time.Hour)})
	if _, err := a.Snapshot().Figure2(nil); err == nil {
		t.Fatal("figure 2 from a shifted window must fail")
	}
}

// TestArchiveWindowGrowsInsteadOfEvicting pins the Archive contract the
// durable store's tail shards rely on: the hourly ring widens to cover
// every binned hour instead of sliding, in-window-stale records are
// binned rather than counted late, and only pre-Origin records stay
// Late. A marshal/restore round trip preserves the grown window.
func TestArchiveWindowGrowsInsteadOfEvicting(t *testing.T) {
	cfg := Config{WindowHours: 4, Archive: true}
	a := New(cfg)
	for h := 0; h < 12; h++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	// A stale-but-post-Origin record: a sliding window would count it
	// late; the archive bins it.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(50), 100)})
	// Pre-Origin is still late.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-time.Hour), client(51), 100)})

	snap := a.Snapshot()
	if snap.SeriesStart != 0 || len(snap.Hours) != 12 {
		t.Fatalf("archive window [%d +%d], want [0 +12]", snap.SeriesStart, len(snap.Hours))
	}
	for _, p := range snap.Hours {
		want := 1.0
		if p.Hour == 0 {
			want = 2
		}
		if p.Flows != want {
			t.Fatalf("hour %d holds %v flows, want %v", p.Hour, p.Flows, want)
		}
	}
	if snap.Late != 1 {
		t.Fatalf("late = %d, want 1 (only the pre-Origin record)", snap.Late)
	}

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAnalyticsStored(Config{WindowHours: 4}, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored archive state differs")
	}
}

// TestImplausibleTimestampCountsLate pins the plausibility cap: a
// record forged (or clock-skewed) past MaxWindowHours must count Late —
// in both live and archive shards — instead of sliding a live window
// over every real bin or growing an archive ring past what stored-state
// reads accept back.
func TestImplausibleTimestampCountsLate(t *testing.T) {
	for _, archive := range []bool{false, true} {
		a := New(Config{WindowHours: 4, Archive: archive})
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(1), 100)})
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(MaxWindowHours)*time.Hour), client(2), 100)})
		snap := a.Snapshot()
		if snap.Late != 1 {
			t.Fatalf("archive=%v: late = %d, want 1", archive, snap.Late)
		}
		if len(snap.Hours) != 1 || snap.Hours[0].Hour != 0 || snap.Hours[0].Flows != 1 {
			t.Fatalf("archive=%v: forged record disturbed the window: %+v", archive, snap.Hours)
		}
		if a.cfg.WindowHours > MaxWindowHours {
			t.Fatalf("archive=%v: window grew past the cap: %d", archive, a.cfg.WindowHours)
		}

		// A restored state may hold a bin past the cap; a record for its
		// hour still counts late.
		past := MaxWindowHours + 1
		st := Stored{window: 4, maxHour: past, bins: []hourBin{{hour: past, flows: 1, bytes: 1}}}
		blob, err := st.AppendBinary(nil, entime.StudyStart)
		if err != nil {
			t.Fatal(err)
		}
		r, err := UnmarshalAnalyticsStored(Config{Archive: archive}, blob)
		if err != nil {
			t.Fatal(err)
		}
		r.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(past)*time.Hour), client(3), 100)})
		if snap := r.Snapshot(); snap.Late != 1 || snap.Hours[len(snap.Hours)-1].Flows != 1 {
			t.Fatalf("archive=%v: a record past the cap joined a restored bin: late %d, %+v", archive, snap.Late, snap.Hours[len(snap.Hours)-1])
		}
	}
}
