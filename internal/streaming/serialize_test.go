package streaming

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
)

// populatedShard builds a shard with every aggregate populated: window
// bins, census drops, late records, prefixes and a district rollup.
func populatedShard(t *testing.T) (*Analytics, Config) {
	t.Helper()
	cfg := Config{WindowHours: 48, TopK: 3}
	a := New(cfg)
	for i := 0; i < 40; i++ {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(i%12)*time.Hour), client(i%7), uint64(100+i))})
	}
	// A dropped record and a late one.
	r := keptRecord(entime.StudyStart, client(1), 10)
	r.SrcPort = 80
	a.Ingest([]netflow.Record{r})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-time.Hour), client(2), 10)})
	// District counts, as a restored checkpoint frame would carry them
	// (white box: the real path needs a geodb sidecar).
	a.hasDistricts = true
	a.districts.set(NoDistrict, "05-113", 7)
	a.districts.set(NoDistrict, "09-162", 3)
	a.located = 10
	return a, cfg
}

// restore rebuilds a shard from its state the way the store's recovery
// does: decode once, fold into a fresh shard.
func restore(t *testing.T, cfg Config, blob []byte) *Analytics {
	t.Helper()
	st, err := DecodeStored(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	a := New(cfg)
	a.MergeStored(st)
	return a
}

func TestMarshalRoundTripRestoresState(t *testing.T) {
	a, cfg := populatedShard(t)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := restore(t, cfg, blob)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored snapshot differs")
	}

	// The restored shard must behave identically under further traffic —
	// the recovery contract, stronger than snapshot equality (top-K
	// truncation would hide diverging prefix tails).
	more := []netflow.Record{
		keptRecord(entime.StudyStart.Add(20*time.Hour), client(4), 900),
		keptRecord(entime.StudyStart.Add(21*time.Hour), client(50), 901),
	}
	a.Ingest(more)
	b.Ingest(more)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored shard diverges under further ingestion")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	a, _ := populatedShard(t)
	b1, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("state marshaling is not deterministic")
	}
}

func TestUnmarshalRejectsDamage(t *testing.T) {
	a, cfg := populatedShard(t)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStored(cfg, blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated state must fail")
	}
	if _, err := DecodeStored(cfg, append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := DecodeStored(cfg, bad); err == nil {
		t.Fatal("unknown version must fail")
	}
	// A config with a different origin cannot adopt the state.
	if _, err := DecodeStored(Config{Origin: entime.StudyStart.Add(time.Hour)}, blob); err == nil {
		t.Fatal("origin mismatch must fail")
	}
}

func TestMergeAdoptsDistrictsIntoDBLessShard(t *testing.T) {
	a, cfg := populatedShard(t)
	m := New(cfg) // no DB/Model: districts nil
	m.Merge(a)
	snap := m.Snapshot()
	if len(snap.Districts) != 2 || snap.Located != 10 {
		t.Fatalf("district rollup lost in merge: %+v", snap.Districts)
	}
}

func TestBounds(t *testing.T) {
	cfg := Config{WindowHours: 8}
	a := New(cfg)
	if _, _, ok := a.Bounds(); ok {
		t.Fatal("empty shard reports bounds")
	}
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(3*time.Hour), client(1), 10)})
	a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(6*time.Hour), client(2), 10)})
	lo, hi, ok := a.Bounds()
	if !ok || lo != 3 || hi != 6 {
		t.Fatalf("bounds = [%d, %d] ok=%v, want [3, 6]", lo, hi, ok)
	}
}

// TestBoundsArchive pins the O(1) fast path the store's tails use: a
// shard's tracked extremes must equal a populated-bin scan at every step,
// including out-of-order arrivals, hours past the window and Merge-driven
// growth.
func TestBoundsArchive(t *testing.T) {
	cfg := Config{WindowHours: 8}
	a := New(cfg)
	if _, _, ok := a.Bounds(); ok {
		t.Fatal("empty shard reports bounds")
	}
	scanBounds := func(s *Analytics) (int, int, bool) {
		lo, hi := -1, -1
		for _, bin := range s.stored().bins {
			if lo < 0 || bin.hour < lo {
				lo = bin.hour
			}
			if bin.hour > hi {
				hi = bin.hour
			}
		}
		return lo, hi, lo >= 0
	}
	for _, h := range []int{40, 3, 100, 7} { // out of order, beyond the window
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 10)})
		glo, ghi, gok := a.Bounds()
		slo, shi, sok := scanBounds(a)
		if glo != slo || ghi != shi || gok != sok {
			t.Fatalf("after hour %d: fast bounds [%d,%d]%v != scan [%d,%d]%v", h, glo, ghi, gok, slo, shi, sok)
		}
	}
	if lo, hi, ok := a.Bounds(); !ok || lo != 3 || hi != 100 {
		t.Fatalf("bounds = [%d, %d] ok=%v, want [3, 100]", lo, hi, ok)
	}
	// Merge-driven growth tracks too.
	other := New(Config{WindowHours: 8})
	other.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(200*time.Hour), client(9), 10)})
	a.Merge(other)
	if lo, hi, ok := a.Bounds(); !ok || lo != 3 || hi != 200 {
		t.Fatalf("bounds after merge = [%d, %d] ok=%v, want [3, 200]", lo, hi, ok)
	}
}

func TestSnapshotRangeTrimsExactly(t *testing.T) {
	cfg := Config{WindowHours: 48, spike: spikeParams{factor: 3, history: 2, minFlows: 3}}
	a := New(cfg)
	add := func(h, count int) {
		for i := 0; i < count; i++ {
			a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(i), 100)})
		}
	}
	add(0, 1)
	add(1, 1)
	add(2, 1)
	add(3, 9) // spike vs hours 1-2
	add(4, 1)

	from := entime.StudyStart.Add(1 * time.Hour)
	to := entime.StudyStart.Add(4 * time.Hour)
	s := a.SnapshotRange(from, to)
	if len(s.Hours) != 3 || s.SeriesStart != 1 {
		t.Fatalf("trimmed series: start=%d len=%d", s.SeriesStart, len(s.Hours))
	}
	for i, p := range s.Hours {
		if p.Hour != 1+i {
			t.Fatalf("hour %d: %+v", i, p)
		}
	}
	// Spikes are re-detected on the trimmed series: hour 3 still spikes
	// over hours 1-2.
	if len(s.Spikes) != 1 || s.Spikes[0].Hour != 3 {
		t.Fatalf("spikes on trimmed range: %+v", s.Spikes)
	}
	// The census is shard-granular, untouched by trimming.
	if s.Census.Kept != 13 {
		t.Fatalf("census kept %d, want 13", s.Census.Kept)
	}

	// Open bounds reproduce the full snapshot.
	if !reflect.DeepEqual(a.SnapshotRange(time.Time{}, time.Time{}), a.Snapshot()) {
		t.Fatal("open-bounds range differs from full snapshot")
	}

	// A range with no hours yields an empty series.
	s = a.SnapshotRange(entime.StudyStart.Add(40*time.Hour), time.Time{})
	if len(s.Hours) != 0 || s.SeriesStart != 0 {
		t.Fatalf("empty range: start=%d hours=%+v", s.SeriesStart, s.Hours)
	}
}

// trimmedReference is the specification SnapshotRange is held to: render
// the whole window, keep the hours inside [from, to), detect spikes on
// what is left.
func trimmedReference(a *Analytics, from, to time.Time) *Snapshot {
	s := a.Snapshot()
	if from.IsZero() && to.IsZero() {
		return s
	}
	var kept []HourPoint
	for _, p := range s.Hours {
		if (from.IsZero() || !p.Time.Before(from)) && (to.IsZero() || p.Time.Before(to)) {
			kept = append(kept, p)
		}
	}
	s.Hours, s.SeriesStart = kept, 0
	if len(kept) > 0 {
		s.SeriesStart = kept[0].Hour
	}
	s.Spikes = detectSpikes(s.Hours, a.cfg)
	return s
}

// TestSnapshotRangeMatchesTrimmedSnapshot holds the range renderer,
// which computes its hour bounds up front, to the trim-afterwards
// specification: bounds on and off the hour grid, before Origin, past
// the newest hour, inverted, on a window that has slid and on an empty
// shard.
func TestSnapshotRangeMatchesTrimmedSnapshot(t *testing.T) {
	slid := New(Config{WindowHours: 48, spike: spikeParams{factor: SpikeFactor, history: 2, minFlows: 1}})
	for h := 0; h < 70; h += 3 {
		for i := 0; i <= h%5*4; i++ {
			slid.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(i), 100)})
		}
	}
	offsets := []time.Duration{-50 * time.Hour, -time.Nanosecond, 0, time.Nanosecond, 21 * time.Hour,
		22*time.Hour + 30*time.Minute, 23*time.Hour - time.Nanosecond, 47 * time.Hour, 69 * time.Hour,
		69*time.Hour + time.Nanosecond, 70 * time.Hour, 500 * time.Hour}
	for name, a := range map[string]*Analytics{"slid": slid, "empty": New(Config{WindowHours: 48})} {
		bounds := []time.Time{{}}
		for _, d := range offsets {
			bounds = append(bounds, entime.StudyStart.Add(d))
		}
		for _, from := range bounds {
			for _, to := range bounds {
				if got, want := a.SnapshotRange(from, to), trimmedReference(a, from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s [%s, %s): series start %d with %d hours, want start %d with %d hours",
						name, from, to, got.SeriesStart, len(got.Hours), want.SeriesStart, len(want.Hours))
				}
			}
		}
	}
}

// TestSnapshotPopulatedRangeStartsAtFirstBin pins the residual
// renderer: the series starts at the first populated hour when the
// range starts before it, and is SnapshotRange otherwise.
func TestSnapshotPopulatedRangeStartsAtFirstBin(t *testing.T) {
	a := New(Config{WindowHours: 100})
	for _, h := range []int{40, 43, 60} {
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	at := func(h int) time.Time { return entime.StudyStart.Add(time.Duration(h) * time.Hour) }
	for _, from := range []time.Time{{}, at(0), at(40)} {
		s := a.SnapshotPopulatedRange(from, at(50))
		if s.SeriesStart != 40 || len(s.Hours) != 10 || s.Hours[0].Flows != 1 {
			t.Fatalf("from %s: series start %d with %d hours, want 40 with 10", from, s.SeriesStart, len(s.Hours))
		}
	}
	if got, want := a.SnapshotPopulatedRange(at(42), at(50)), a.SnapshotRange(at(42), at(50)); !reflect.DeepEqual(got, want) {
		t.Fatalf("range inside the populated hours: start %d, want %d", got.SeriesStart, want.SeriesStart)
	}
	empty := New(Config{WindowHours: 100})
	if s := empty.SnapshotPopulatedRange(time.Time{}, at(50)); len(s.Hours) != 0 || s.SeriesStart != 0 {
		t.Fatalf("empty shard: start %d, %d hours", s.SeriesStart, len(s.Hours))
	}
}

// withWindowEnd rewrites the header's maxHour of an encoded state: the
// field after version, origin and window.
func withWindowEnd(blob []byte, h int) []byte {
	out := append([]byte(nil), blob...)
	binary.BigEndian.PutUint64(out[1+8+4:], uint64(int64(h)))
	return out
}

// TestStateWindowEndBounded pins the header's maxHour to what a shard can
// hold, -1 (no bin) up to MaxWindowHours-1. A state ending at the bound
// restored as written before: one record ingested into it then widened the
// shard to 175 744 hours, and MarshalBinary wrote a state DecodeStored
// refused. Every state ending inside the bound still round-trips after a
// record lands in it.
func TestStateWindowEndBounded(t *testing.T) {
	cfg := Config{WindowHours: 24}
	blob, err := New(cfg).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{MaxWindowHours, MaxWindowHours + 1, math.MaxInt64, -2, math.MinInt64} {
		bad := withWindowEnd(blob, h)
		if _, err := DecodeStored(cfg, bad); err == nil || !strings.Contains(err.Error(), "implausible state window end") {
			t.Errorf("window end %d: DecodeStored err %v, want implausible", h, err)
		}
		if _, err := UnmarshalAnalyticsStored(cfg, bad); err == nil {
			t.Errorf("window end %d: UnmarshalAnalyticsStored accepted it", h)
		}
	}
	for _, h := range []int{-1, 0, MaxWindowHours - 1} {
		a, err := UnmarshalAnalyticsStored(cfg, withWindowEnd(blob, h))
		if err != nil {
			t.Fatalf("window end %d: %v", h, err)
		}
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart, client(1), 100)})
		again, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeStored(cfg, again); err != nil {
			t.Errorf("window end %d: one record later the shard marshals a state DecodeStored refuses: %v", h, err)
		}
	}
}

// TestUnmarshalStoredAdoptsWiderWindow pins the frame contract:
// UnmarshalAnalyticsStored adopts the window embedded in the state, not
// the configuration's — the store's compacted frames span more hours
// than the live window and must restore without losing a bin.
func TestUnmarshalStoredAdoptsWiderWindow(t *testing.T) {
	wide := New(Config{WindowHours: 10})
	for h := 0; h < 10; h++ {
		wide.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h)*time.Hour), client(h), 100)})
	}
	blob, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	narrow := Config{WindowHours: 4}
	got, err := UnmarshalAnalyticsStored(narrow, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), wide.Snapshot()) {
		t.Fatal("stored unmarshal lost state restoring a wider window")
	}

	// An implausibly large declared window is corruption, not an
	// allocation request: the ring would be ~100 GB.
	huge := append([]byte(nil), blob...)
	huge[9], huge[10], huge[11], huge[12] = 0xFF, 0xFF, 0xFF, 0xFF // window u32 after version+origin
	if _, err := UnmarshalAnalyticsStored(narrow, huge); err == nil {
		t.Fatal("stored unmarshal must reject an implausible window length")
	}
}
