package streaming

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
)

// storedSeeds builds the state blobs of the checkpoint frames a store
// holds, by name: two single-day frames with a district rollup, the
// frame a compaction of the two persists (window wider than the
// live one), a frame from a collector without a geolocation sidecar, and
// a frame that aggregated only dropped records.
func storedSeeds(t testing.TB) (Config, map[string][]byte) {
	t.Helper()
	cfg := Config{WindowHours: 36}
	marshal := func(a *Analytics) []byte {
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	day := func(d int, districts bool) *Analytics {
		a := New(cfg)
		for h := 0; h < 24; h++ {
			for i := 0; i <= h%5; i++ {
				at := entime.StudyStart.Add(time.Duration(d*24+h)*time.Hour + time.Duration(i)*time.Minute)
				a.Ingest([]netflow.Record{keptRecord(at, client(d*100+h*7+i), uint64(300+h+i))})
			}
		}
		r := keptRecord(entime.StudyStart, client(1), 10)
		r.SrcPort = 80
		a.Ingest([]netflow.Record{r})
		a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(-time.Hour), client(2), 10)})
		if districts {
			// White box, as in populatedShard: the real path needs a sidecar.
			a.hasDistricts = true
			a.districts.set(NoDistrict, "05-113", uint64(7+d))
			a.districts.set(NoDistrict, "09-162", 3)
			a.located = uint64(10 + d)
		}
		return a
	}
	day0, day3 := day(0, true), day(3, true)
	wide := cfg
	wide.WindowHours = 4 * 24
	archive := New(wide)
	archive.Merge(day0)
	archive.Merge(day3)
	accounting := New(cfg)
	for i := 0; i < 5; i++ {
		r := keptRecord(entime.StudyStart, client(i), 10)
		r.SrcPort = 80
		accounting.Ingest([]netflow.Record{r})
	}
	return cfg, map[string][]byte{
		"day0":          marshal(day0),
		"day3":          marshal(day3),
		"archive":       marshal(archive),
		"districts-off": marshal(day(1, false)),
		"accounting":    marshal(accounting),
	}
}

// foldStored checks one state blob against the contract of the compact
// form: DecodeStored accepts exactly what UnmarshalAnalyticsStored
// accepts, and folding the decoded form into a fresh shard at the
// state's window marshals to the same bytes as folding the restored
// shard. It returns those bytes (nil when the blob is refused).
func foldStored(t *testing.T, cfg Config, data []byte) []byte {
	t.Helper()
	st, err := DecodeStored(cfg, data)
	a, aerr := UnmarshalAnalyticsStored(cfg, data)
	if (err == nil) != (aerr == nil) {
		t.Fatalf("DecodeStored: %v, UnmarshalAnalyticsStored: %v: one parser must give one verdict", err, aerr)
	}
	if err != nil {
		return nil
	}
	if w := st.window; w <= 0 || w > MaxWindowHours || w != a.Config().WindowHours {
		t.Fatalf("decoded window %d (restored shard: %d), want one window within MaxWindowHours", w, a.Config().WindowHours)
	}
	at := cfg
	at.WindowHours = st.window
	viaStored, viaShard := New(at), New(at)
	viaStored.MergeStored(st)
	viaShard.Merge(a)
	got, err := viaStored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := viaShard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MergeStored(DecodeStored(x)) and Merge(UnmarshalAnalyticsStored(x)) marshal differently (%d vs %d bytes)", len(got), len(want))
	}
	return got
}

// TestStoredFoldsLikeRestoredShard pins "one parser, two consumers" on
// the frames a store really holds: for anything MarshalBinary produced,
// the restored shard, the fold of the restored shard and the fold of the
// compact form all marshal back to the input, byte for byte.
func TestStoredFoldsLikeRestoredShard(t *testing.T) {
	cfg, seeds := storedSeeds(t)
	for name, blob := range seeds {
		a, err := UnmarshalAnalyticsStored(cfg, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := a.MarshalBinary(); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("%s: restored shard marshals to different bytes (err %v)", name, err)
		}
		if folded := foldStored(t, cfg, blob); !bytes.Equal(folded, blob) {
			t.Fatalf("%s: folding the compact form into a fresh shard does not reproduce the frame", name)
		}
	}
}

// TestStoredLastEntryWins pins the non-canonical inputs: a repeated bin
// hour, prefix or district keeps its last value, and out-of-order tables
// fold like ordered ones — what the ring slots and the interning maps of
// the restored shard did implicitly.
func TestStoredLastEntryWins(t *testing.T) {
	cfg, seeds := storedSeeds(t)
	a, err := UnmarshalAnalyticsStored(cfg, seeds["day0"])
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode day0 behind its own header with the bins reversed and the
	// newest hour repeated under a different value, two prefix rows that
	// mask to one /24, and a repeated district.
	st := a.stored()
	be := binary.BigEndian
	enc := append([]byte(nil), seeds["day0"][:1+8+4+8+8+8+4+8*nReasons]...)
	enc = be.AppendUint32(enc, uint32(len(st.bins)+1))
	newest := st.bins[len(st.bins)-1].hour
	for i := len(st.bins) - 1; i >= -1; i-- {
		bin := hourBin{hour: newest, flows: 99, bytes: 990}
		if i >= 0 {
			bin = st.bins[i]
		}
		enc = be.AppendUint64(enc, uint64(bin.hour))
		enc = be.AppendUint64(enc, math.Float64bits(bin.flows))
		enc = be.AppendUint64(enc, math.Float64bits(bin.bytes))
	}
	enc = be.AppendUint32(enc, 2)
	enc = be.AppendUint64(append(enc, 4, 100, 64, 0, 9, 24), 5)
	enc = be.AppendUint64(append(enc, 4, 100, 64, 0, 77, 24), 6)
	enc = be.AppendUint32(append(enc, 1), 3)
	for _, d := range []struct {
		id string
		n  uint64
	}{{"09-162", 1}, {"05-113", 2}, {"09-162", 3}} {
		enc = append(append(enc, 0, byte(len(d.id))), d.id...)
		enc = be.AppendUint64(enc, d.n)
	}

	if foldStored(t, cfg, enc) == nil {
		t.Fatal("hand-built state refused")
	}
	got, err := DecodeStored(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.bins) != len(st.bins) {
		t.Fatalf("%d bins decoded, want %d after the repeated hour collapses", len(got.bins), len(st.bins))
	}
	for i := 1; i < len(got.bins); i++ {
		if got.bins[i-1].hour >= got.bins[i].hour {
			t.Fatalf("bins not in ascending hour order at %d", i)
		}
	}
	if last := got.bins[len(got.bins)-1]; last.flows != 99 || last.bytes != 990 {
		t.Fatalf("repeated hour kept %+v, want the last entry", last)
	}
	if len(got.prefixes) != 1 || got.prefixCount[0] != 6 {
		t.Fatalf("prefixes %v counts %v, want one masked /24 with the last count", got.prefixes, got.prefixCount)
	}
	if rows := got.districts.Counts(false); len(rows) != 2 || rows[0] != (DistrictCount{ID: "05-113", Flows: 2}) || rows[1] != (DistrictCount{ID: "09-162", Flows: 3}) {
		t.Fatalf("districts %+v, want each id once with its last count", rows)
	}
}

// FuzzStoredState hammers the one state parser through both of its
// consumers with arbitrary bytes. Nothing panics; nothing is sized past
// MaxWindowHours; what one consumer refuses the other refuses; and every
// accepted input folds to the same bytes through the compact form as
// through the restored shard. Those bytes are canonical (MarshalBinary
// wrote them from a shard only folds have touched), so on them the round
// trip must close exactly: decode, fold, marshal gives them back, and so
// does restoring them.
//
// The header's maxHour is the one field a fold does not carry over —
// Merge never read other.maxHour, it recomputes the window edge from the
// bins — so for a hand-made input whose maxHour names an hour without a
// bin, the restored shard itself marshals differently from any fold of
// it; the equalities below are the ones that hold for every input.
func FuzzStoredState(f *testing.F) {
	cfg, seeds := storedSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{stateVersion})
	f.Add(withWindowEnd(seeds["day0"], MaxWindowHours))

	f.Fuzz(func(t *testing.T, data []byte) {
		canonical := foldStored(t, cfg, data)
		if canonical == nil {
			return
		}
		a, err := UnmarshalAnalyticsStored(cfg, canonical)
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if again, err := a.MarshalBinary(); err != nil || !bytes.Equal(again, canonical) {
			t.Fatalf("restoring the canonical re-encoding marshals to different bytes (err %v)", err)
		}
		if again := foldStored(t, cfg, canonical); !bytes.Equal(again, canonical) {
			t.Fatal("folding the canonical re-encoding does not reproduce it")
		}
	})
}
