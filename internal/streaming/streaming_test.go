package streaming

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
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

func TestSpikeDetection(t *testing.T) {
	cfg := Config{spike: spikeParams{factor: 3, history: 3, minFlows: 5}}
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

// TestEvictionDropsHoursOlderThanWindow proves the live view clips: once
// the newest hour moves on, hours older than WindowHours are gone from
// the snapshot (the shard still holds them) and their flows are not
// re-attributed to any hour it shows (only the census counts them).
func TestEvictionDropsHoursOlderThanWindow(t *testing.T) {
	cfg := Config{WindowHours: 4}
	a := New(cfg)
	for h := 0; h < 4; h++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	// Jump far past the window (more than 2x WindowHours), to an hour
	// whose window holds hours congruent modulo WindowHours to the held
	// ones, which a ring would have had to clear.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(11*time.Hour), client(11), 100)})

	snap := a.Snapshot()
	if snap.SeriesStart != 8 || len(snap.Hours) != 4 {
		t.Fatalf("window [%d +%d], want [8 +4]", snap.SeriesStart, len(snap.Hours))
	}
	var total float64
	for _, p := range snap.Hours {
		total += p.Flows
		if p.Hour < 8 {
			t.Fatalf("hour %d is still in the view", p.Hour)
		}
		// Hours 8..10 must read as empty, not as hours 0..3's counts.
		if p.Hour != 11 && p.Flows != 0 {
			t.Fatalf("an older hour resurfaced as hour %d with %v flows", p.Hour, p.Flows)
		}
	}
	if total != 1 {
		t.Fatalf("window holds %v flows, want exactly the post-slide record", total)
	}
	if snap.Census.Kept != 5 {
		t.Fatalf("census kept %d, want 5 (the view must not touch the census)", snap.Census.Kept)
	}
}

// TestMergeEvictsLikeIngest proves the live view is the same whether
// its newest hour comes from live records or from merging a shard that
// is ahead in time.
func TestMergeEvictsLikeIngest(t *testing.T) {
	cfg := Config{WindowHours: 4}
	old := New(cfg)
	old.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(0), 100)})
	old.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Hour), client(1), 100)})
	ahead := New(cfg)
	ahead.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(6*time.Hour), client(6), 100)})

	// Merging the ahead shard into the old one moves the view: hours 0
	// and 1 leave it, and neither counts late, exactly as with live
	// ingestion of an hour-6 record.
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

// TestArchiveWindowGrowsInsteadOfEvicting pins what the durable store's
// tail shards rely on: a shard keeps every hour it bins, and the window
// its state encodes widens to cover them instead of sliding. Records
// behind the configured window are binned rather than counted late; only
// pre-Origin records are Late. Snapshot renders the configured window's
// last hours of it, and a marshal/restore round trip preserves the grown
// window.
func TestArchiveWindowGrowsInsteadOfEvicting(t *testing.T) {
	cfg := Config{WindowHours: 4}
	a := New(cfg)
	for h := 0; h < 12; h++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	// A record eleven hours behind the newest: binned, not late.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(50), 100)})
	// Pre-Origin is still late.
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-time.Hour), client(51), 100)})

	if a.window != windowQuantum || a.cfg.WindowHours != 4 {
		t.Fatalf("window %d (configured %d), want %d (4)", a.window, a.cfg.WindowHours, windowQuantum)
	}
	all := Fold(cfg, time.Time{}, time.Time{}, a.Detach(time.Time{}, time.Time{})).Snapshot()
	if all.SeriesStart != 0 || len(all.Hours) != 12 {
		t.Fatalf("held hours [%d +%d], want [0 +12]", all.SeriesStart, len(all.Hours))
	}
	for _, p := range all.Hours {
		want := 1.0
		if p.Hour == 0 {
			want = 2
		}
		if p.Flows != want {
			t.Fatalf("hour %d holds %v flows, want %v", p.Hour, p.Flows, want)
		}
	}
	snap := a.Snapshot()
	if snap.SeriesStart != 8 || len(snap.Hours) != 4 || snap.WindowHours != 4 {
		t.Fatalf("live view [%d +%d] at window %d, want [8 +4] at 4", snap.SeriesStart, len(snap.Hours), snap.WindowHours)
	}
	if snap.Late != 1 || all.Late != 1 {
		t.Fatalf("late = %d (held %d), want 1 (only the pre-Origin record)", snap.Late, all.Late)
	}

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAnalyticsStored(Config{WindowHours: 4}, blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if b.window != a.window || !reflect.DeepEqual(again, blob) {
		t.Fatalf("restored window %d, want %d; state re-encodes equal: %v", b.window, a.window, reflect.DeepEqual(again, blob))
	}
	if got := b.Snapshot(); !reflect.DeepEqual(got.Hours, all.Hours) || got.Late != all.Late {
		t.Fatal("restored state renders other hours than it held")
	}
}

// TestLateOnlyBeforeOriginOrPastCap pins the one rule of Late: a record
// counts late only when no hour can hold it, never for arriving behind
// the window. A shard at a 4-hour window that saw hour 10 first still
// bins hour 0 — in its state, in a query over it — while its live view
// shows the window's last four hours.
func TestLateOnlyBeforeOriginOrPastCap(t *testing.T) {
	cfg := Config{WindowHours: 4}
	a := New(cfg)
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(10*time.Hour), client(0), 100)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(256), 100)})
	hour0 := netip.PrefixFrom(client(256), ClientPrefixBits).Masked()

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	marshaled, err := DecodeStored(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stored{"Detach": a.Detach(time.Time{}, time.Time{}), "MarshalBinary": marshaled} {
		if st.late != 0 || len(st.bins) != 2 || st.bins[0] != (hourBin{hour: 0, flows: 1, bytes: 100}) {
			t.Fatalf("%s: late %d, bins %+v, want hour 0's bin and none late", name, st.late, st.bins)
		}
		if !containsKey(st.prefixes, hour0) {
			t.Fatalf("%s: prefixes %v lack hour 0's %s", name, st.prefixes, hour0)
		}
	}

	q := Fold(cfg, time.Time{}, time.Time{}, marshaled).Snapshot()
	if q.Late != 0 || q.SeriesStart != 0 || len(q.Hours) != 11 || q.Hours[0].Flows != 1 || q.Hours[10].Flows != 1 {
		t.Fatalf("query: late %d, hours %+v, want hours 0 and 10 with a flow each", q.Late, q.Hours)
	}
	snap := a.Snapshot()
	if snap.Late != 0 || snap.WindowHours != 4 || snap.SeriesStart != 7 || len(snap.Hours) != 4 || snap.Hours[3].Flows != 1 {
		t.Fatalf("live view: late %d, window %d, hours %+v, want hours 7-10 at window 4", snap.Late, snap.WindowHours, snap.Hours)
	}
}

// TestImplausibleTimestampCountsLate pins the plausibility cap: a
// record forged (or clock-skewed) past MaxWindowHours must count Late
// instead of growing the shard's window past what stored-state reads
// accept back. A hand-built state holding a bin past the cap ends its
// window past it too, and no reader restores it.
func TestImplausibleTimestampCountsLate(t *testing.T) {
	a := New(Config{WindowHours: 4})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(1), 100)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(MaxWindowHours)*time.Hour), client(2), 100)})
	snap := a.Snapshot()
	if snap.Late != 1 {
		t.Fatalf("late = %d, want 1", snap.Late)
	}
	if len(snap.Hours) != 1 || snap.Hours[0].Hour != 0 || snap.Hours[0].Flows != 1 {
		t.Fatalf("forged record disturbed the series: %+v", snap.Hours)
	}
	if a.window > MaxWindowHours {
		t.Fatalf("window grew past the cap: %d", a.window)
	}

	past := MaxWindowHours + 1
	st := Stored{window: 4, maxHour: past, bins: []hourBin{{hour: past, flows: 1, bytes: 1}}}
	blob, err := st.AppendBinary(nil, entime.StudyStart)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAnalyticsStored(Config{}, blob); err == nil || !strings.Contains(err.Error(), "implausible state window end") {
		t.Fatalf("a state holding a bin past the cap restored (err %v)", err)
	}
}
