package streaming

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/entime"
)

// randomState draws one shard state: hourly bins scattered over a span
// starting near base (none at all for an accounting-only state), prefix
// counts over a small pool so that states share keys, and a district
// rollup or none.
func randomState(rng *rand.Rand, base int) *Stored {
	st := &Stored{
		window:  24 + rng.Intn(600),
		maxHour: -1,
		late:    uint64(rng.Intn(5)),
	}
	for i := range st.dropped {
		st.dropped[i] = uint64(rng.Intn(40))
	}
	if rng.Intn(6) > 0 {
		first := base + rng.Intn(80)
		span := 1 + rng.Intn(st.window)
		for h := first; h < first+span; h++ {
			if rng.Intn(3) > 0 {
				st.bins = append(st.bins, hourBin{hour: h, flows: float64(rng.Intn(900)), bytes: float64(rng.Intn(1 << 20))})
				st.maxHour = h
			}
		}
		if len(st.bins) > 0 && rng.Intn(4) == 0 {
			st.maxHour += rng.Intn(st.window - span + 1) // a window edge without a bin
		}
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		bits := 24
		if rng.Intn(8) == 0 {
			bits = 16 + rng.Intn(16) // off the /24 fast index
		}
		p, _ := netip.AddrFrom4([4]byte{100, 64, byte(rng.Intn(3)), byte(rng.Intn(256))}).Prefix(bits)
		if rng.Intn(20) == 0 {
			p = netip.MustParsePrefix("2001:db8::/48")
		}
		if !containsKey(st.prefixes, p) {
			st.prefixes = append(st.prefixes, p)
			st.prefixCount = append(st.prefixCount, uint64(rng.Intn(500)))
		}
	}
	if rng.Intn(2) == 0 {
		st.hasDistricts = true
		st.located = uint64(rng.Intn(100))
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if id := fmt.Sprintf("%02d-%03d", 1+rng.Intn(3), rng.Intn(4)); !containsKey(st.districtIDs, id) {
				st.districtIDs = append(st.districtIDs, id)
				st.districtCount = append(st.districtCount, uint64(rng.Intn(50)))
			}
		}
	}
	return st
}

func containsKey[K comparable](keys []K, k K) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// scrambled encodes st the way MarshalBinary never would — bins newest
// first, every table reversed, and each row preceded by a stale copy of
// itself under another value — which the decoder has to sort out (last
// entry wins) into the state st is.
func scrambled(st *Stored, origin time.Time) []byte {
	be := binary.BigEndian
	enc := []byte{stateVersion}
	enc = be.AppendUint64(enc, uint64(origin.UnixNano()))
	enc = be.AppendUint32(enc, uint32(st.window))
	enc = be.AppendUint64(enc, uint64(int64(st.maxHour)))
	enc = be.AppendUint64(enc, st.late)
	enc = be.AppendUint64(enc, st.located)
	enc = be.AppendUint32(enc, uint32(nReasons))
	for _, n := range st.dropped {
		enc = be.AppendUint64(enc, n)
	}
	enc = be.AppendUint32(enc, uint32(2*len(st.bins)))
	for i := len(st.bins) - 1; i >= 0; i-- {
		for _, bin := range []hourBin{{hour: st.bins[i].hour, flows: 1, bytes: 2}, st.bins[i]} {
			enc = be.AppendUint64(enc, uint64(bin.hour))
			enc = be.AppendUint64(enc, math.Float64bits(bin.flows))
			enc = be.AppendUint64(enc, math.Float64bits(bin.bytes))
		}
	}
	enc = be.AppendUint32(enc, uint32(2*len(st.prefixes)))
	for i := len(st.prefixes) - 1; i >= 0; i-- {
		for _, n := range []uint64{7, st.prefixCount[i]} {
			addr := st.prefixes[i].Addr().AsSlice()
			enc = append(append(enc, byte(len(addr))), addr...)
			enc = be.AppendUint64(append(enc, byte(st.prefixes[i].Bits())), n)
		}
	}
	if !st.hasDistricts {
		return append(enc, 0)
	}
	enc = be.AppendUint32(append(enc, 1), uint32(2*len(st.districtIDs)))
	for i := len(st.districtIDs) - 1; i >= 0; i-- {
		for _, n := range []uint64{7, st.districtCount[i]} {
			id := st.districtIDs[i]
			enc = be.AppendUint64(append(append(enc, 0, byte(len(id))), id...), n)
		}
	}
	return enc
}

// TestRangeFoldsLikeWidenedRing is the differential property behind the
// flat query path: for any set of states and any range, the Range fold
// renders what a sliding shard renders that was widened by hand to hold
// every folded hour — the target queries used before — and the rendering
// encodes to the bytes the ring encoder makes of it. The states come in
// every form a fold meets: decoded from canonical bytes, decoded from
// scrambled ones, and detached from a live archive shard; their hours
// overlap, leave gaps, and (one case in eight) sit at the plausibility
// bound with bins beyond it. The ranges are open on either side, empty,
// before, inside and past the data, and off the hour.
func TestRangeFoldsLikeWidenedRing(t *testing.T) {
	origin := entime.StudyStart
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Origin: origin, WindowHours: 24 + rng.Intn(400), TopK: 1 + rng.Intn(6)}
		base := rng.Intn(300)
		if seed%8 == 0 {
			base = MaxWindowHours - 40 - rng.Intn(200)
		}

		at := func(hour int) time.Time {
			return origin.Add(time.Duration(hour)*time.Hour + time.Duration(rng.Intn(2)*rng.Intn(3600))*time.Second)
		}
		var from, to time.Time
		if rng.Intn(4) > 0 {
			from = at(base - 30 + rng.Intn(500))
		}
		if rng.Intn(4) > 0 {
			to = at(base - 30 + rng.Intn(800))
		}

		// The ring folds every state whole; the Range folds what a query
		// would hold of it.
		var whole, states []*Stored
		minHour, maxHour := -1, -1
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			drawn := randomState(rng, base)
			blob, err := drawn.AppendBinary(nil, origin)
			if err != nil {
				t.Fatal(err)
			}
			form := rng.Intn(3)
			if form == 1 {
				blob = scrambled(drawn, origin)
			}
			st, err := DecodeStored(cfg, blob)
			if err != nil {
				t.Fatalf("seed %d: state %d refused: %v", seed, i, err)
			}
			for _, bin := range st.bins {
				if bin.hour >= MaxWindowHours {
					break
				}
				if minHour < 0 || bin.hour < minHour {
					minHour = bin.hour
				}
				maxHour = max(maxHour, bin.hour)
			}
			whole = append(whole, st)
			if form == 2 {
				// A live tail: an archive shard that folded the state,
				// copied out for this range only.
				tail := cfg
				tail.Archive = true
				a := New(tail)
				a.MergeStored(st)
				st = a.Detach(from, to)
			}
			states = append(states, st)
		}

		widened := cfg
		if minHour >= 0 {
			widened.WindowHours = max(cfg.WindowHours, maxHour-minHour+1)
		}
		ring, flat := New(widened), NewRange(cfg, from, to)
		for i := range states {
			ring.MergeStored(whole[i])
			flat.MergeStored(states[i])
		}
		for name, pair := range map[string][2]*Snapshot{
			"Snapshot":          {flat.Snapshot(), ring.SnapshotRange(from, to)},
			"SnapshotPopulated": {flat.SnapshotPopulated(), ring.SnapshotPopulatedRange(from, to)},
		} {
			got, want := pair[0], pair[1]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, [%s, %s): %s renders\n%+v\nthe widened ring\n%+v", seed, from, to, name, got, want)
			}
			gotBytes, err := got.Stored().AppendBinary(nil, got.Origin)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := FromSnapshot(want).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("seed %d: %s: Snapshot.Stored encodes to %d bytes, FromSnapshot + MarshalBinary to other %d", seed, name, len(gotBytes), len(wantBytes))
			}
		}
	}
}
