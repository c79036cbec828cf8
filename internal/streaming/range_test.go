package streaming

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"cwatrace/internal/entime"
)

// SnapshotRange renders a snapshot restricted to hours with
// from <= Time < to (zero bounds are open), SnapshotPopulatedRange one
// whose series additionally starts no earlier than the first populated
// hour: what a query rendered of its hand-widened ring before Range, and
// the reference Fold's renderings are held to.
func (a *Analytics) SnapshotRange(from, to time.Time) *Snapshot {
	lo, hi := a.hourRange(from, to)
	return a.render(lo, hi)
}

func (a *Analytics) SnapshotPopulatedRange(from, to time.Time) *Snapshot {
	lo, hi := a.hourRange(from, to)
	if first, _, ok := a.Bounds(); ok && first > lo {
		lo = first
	}
	return a.render(lo, hi)
}

// render builds the snapshot with the hourly series over the inclusive
// hour range [lo, hi], which must lie inside the covered window.
func (a *Analytics) render(lo, hi int) *Snapshot {
	cfg := a.cfg
	s := a.counters.snapshot(cfg)

	// The populated window, oldest hour first.
	if a.maxHour >= 0 && lo <= hi {
		s.SeriesStart = lo
		s.Hours = make([]HourPoint, 0, hi-lo+1)
		for h := lo; h <= hi; h++ {
			p := HourPoint{Hour: h, Time: cfg.Origin.Add(time.Duration(h) * time.Hour)}
			if i := a.hours.at(h); i >= 0 {
				p.Flows, p.Bytes = a.hours.flows[i], a.hours.bytes[i]
			}
			s.Hours = append(s.Hours, p)
		}
	}
	s.Spikes = detectSpikes(s.Hours, cfg)
	return s
}

// hourRange intersects the covered window with [from, to) and returns
// the inclusive hour-index range to render (lo > hi when it is empty).
func (a *Analytics) hourRange(from, to time.Time) (lo, hi int) {
	lo, hi = clipHours(a.cfg.Origin, from, to)
	return max(lo, a.maxHour-a.cfg.WindowHours+1), min(hi, a.maxHour)
}

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
			id := fmt.Sprintf("%02d-%03d", 1+rng.Intn(3), rng.Intn(4))
			if rng.Intn(2) == 0 {
				id = modelDistricts[rng.Intn(len(modelDistricts))].ID
			}
			st.districts.set(NoDistrict, id, uint64(rng.Intn(50)))
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
	rows := st.districts.Counts(false)
	enc = be.AppendUint32(append(enc, 1), uint32(2*len(rows)))
	for i := len(rows) - 1; i >= 0; i-- {
		for _, n := range []uint64{7, rows[i].Flows} {
			id := rows[i].ID
			enc = be.AppendUint64(append(append(enc, 0, byte(len(id))), id...), n)
		}
	}
	return enc
}

// TestRangeFoldsLikeWidenedRing is the differential property behind the
// flat query path: for any set of states and any range, the Range fold
// renders what a shard renders that was widened by hand to hold
// every folded hour — the target queries used before — and the rendering
// encodes to the bytes the ring encoder makes of it. The live view
// renders the widened ring's last cfg.WindowHours hours under the window
// as it is, and counts late exactly what the open query does. The states come in
// every form a fold meets: decoded from canonical bytes, decoded from
// scrambled ones, and detached from a live shard; their hours
// overlap, leave gaps, and (one case in eight) reach the plausibility
// bound. The ranges are open on either side, empty,
// before, inside and past the data, and off the hour.
func TestRangeFoldsLikeWidenedRing(t *testing.T) {
	origin := entime.StudyStart
	slid := 0 // seeds whose live view lost hours to the window
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
			if drawn.maxHour >= MaxWindowHours {
				// No reader takes a window ending past the bound: fold what a
				// state may hold there, its bins below it.
				if blob, _ := drawn.AppendBinary(nil, origin); decodes(cfg, blob) {
					t.Fatalf("seed %d: state %d ending at hour %d decoded", seed, i, drawn.maxHour)
				}
				drawn.bins = slices.DeleteFunc(drawn.bins, func(b hourBin) bool { return b.hour >= MaxWindowHours })
				drawn.maxHour = MaxWindowHours - 1
			}
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
				// A live tail: a shard that folded the state, copied out
				// for this range only.
				a := New(cfg)
				a.MergeStored(st)
				st = a.Detach(from, to)
			}
			states = append(states, st)
		}

		widened := cfg
		if minHour >= 0 {
			widened.WindowHours = max(cfg.WindowHours, maxHour-minHour+1)
		}
		ring := New(widened)
		for _, st := range whole {
			ring.MergeStored(st)
		}
		// The live view folds them whole too, in reverse: with states that
		// reach further back than the window, some hours slide out, and
		// none comes late for it.
		reversed := slices.Clone(whole)
		slices.Reverse(reversed)
		flat, window := Fold(cfg, from, to, states...), FoldWindow(cfg, reversed...)
		residual := Fold(cfg, from, to, states...).Populated()
		live := ring.render(max(0, ring.maxHour-cfg.WindowHours+1), ring.maxHour)
		live.WindowHours = cfg.WindowHours
		if minHour >= 0 && window.Snapshot().SeriesStart > minHour {
			slid++
		}
		if got, want := window.Snapshot().Late, Fold(cfg, time.Time{}, time.Time{}, whole...).Snapshot().Late; got != want {
			t.Fatalf("seed %d: the live view counts %d late, the open query %d", seed, got, want)
		}
		for name, c := range map[string]struct {
			fold *Range
			want *Snapshot
		}{
			"Fold":       {flat, ring.SnapshotRange(from, to)},
			"Populated":  {residual, ring.SnapshotPopulatedRange(from, to)},
			"FoldWindow": {window, live},
		} {
			got, want := c.fold.Snapshot(), c.want
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, [%s, %s): %s renders\n%+v\nthe widened ring\n%+v", seed, from, to, name, got, want)
			}
			wantBytes, err := FromSnapshot(want).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			// The fold encodes itself to the bytes the ring encoder makes of
			// the rendering: unrendered, behind whatever the caller's buffer
			// holds, in exactly the room.
			direct, err := c.fold.Stored().AppendBinary([]byte("head"), origin)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct[4:], wantBytes) || cap(direct) != len(direct) {
				t.Fatalf("seed %d: %s: AppendState writes %d bytes in room for %d, the rendering encodes to %d", seed, name, len(direct)-4, cap(direct)-4, len(wantBytes))
			}
		}
	}
	if slid < 40 {
		t.Fatalf("the live view slid in %d seeds of 400: the window rule went unexercised", slid)
	}
}

func decodes(cfg Config, blob []byte) bool {
	_, err := DecodeStored(cfg, blob)
	return err == nil
}

// stateFeed deals a fuzz input out as the scalars of shard states; an
// exhausted input deals zeros.
type stateFeed struct{ data []byte }

func (f *stateFeed) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *stateFeed) n(max int) int { return int(f.byte()) % (max + 1) }

// float deals a small count, or arbitrary bits: fractions, -0, NaN, ±Inf.
func (f *stateFeed) float() float64 {
	if f.byte()&1 == 0 {
		return float64(f.n(200))
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(f.byte())
	}
	return math.Float64frombits(bits)
}

// state deals one state a fold can meet: a frame (bins with gaps from a
// base hour on, counters, a few prefixes, a rollup or none), or the same
// detached from a live tail for the range asked.
func (f *stateFeed) state(cfg Config, from, to time.Time) *Stored {
	st := &Stored{window: 24 + f.n(400), maxHour: -1, late: uint64(f.n(9)), located: uint64(f.n(3))}
	for i := range st.dropped {
		st.dropped[i] = uint64(f.n(50))
	}
	hour := f.n(255) * (1 + f.n(3))
	for i := f.n(40); i > 0; i-- {
		st.bins = append(st.bins, hourBin{hour: hour, flows: f.float(), bytes: f.float()})
		st.maxHour = hour
		hour += 1 + f.n(2)*f.n(30) // mostly the next hour, sometimes a gap
	}
	for i := f.n(6); i > 0; i-- {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(f.n(2)), 0}), 24)
		if f.n(9) == 0 {
			p = netip.MustParsePrefix("2001:db8::/48")
		}
		if !containsKey(st.prefixes, p) {
			st.prefixes, st.prefixCount = append(st.prefixes, p), append(st.prefixCount, uint64(f.n(255)))
		}
	}
	if st.hasDistricts = f.n(1) == 1; st.hasDistricts {
		for i := f.n(3); i > 0; i-- {
			id := fmt.Sprintf("0%d", f.n(4))
			if f.n(1) == 1 {
				id = modelDistricts[f.n(255)].ID
			}
			st.districts.set(NoDistrict, id, uint64(f.n(99)))
		}
	}
	if f.n(2) == 0 {
		tail := New(cfg)
		tail.MergeStored(st)
		return tail.Detach(from, to)
	}
	return st
}

// FuzzStateFromFold holds the state a shard ships a router — encoded
// straight from the fold (Range.Stored) — to the bytes the ring encoder
// makes of the fold's rendering, which is what the shard shipped before
// and what the router's merge is held to: for any sequence of frames and
// live tails, gap hours, -0 and NaN among their bins, folded as an hour
// query over any range, as the raw residual of a tiered one, and as the
// live window. Whatever the fold ships also decodes.
func FuzzStateFromFold(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, 40))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0, 0, 0, 0, 0, 0, 0, 7}, 60)) // -0 in every other bin
	f.Add(bytes.Repeat([]byte{2, 0, 9, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 4}, 50))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &stateFeed{data}
		cfg := Config{Origin: entime.StudyStart, WindowHours: 24 + in.n(255), TopK: 1 + in.n(5)}
		var from, to time.Time
		if in.n(2) > 0 {
			from = cfg.Origin.Add(time.Duration(in.n(255))*4*time.Hour + time.Duration(in.n(1))*time.Minute)
		}
		if in.n(2) > 0 {
			to = cfg.Origin.Add(time.Duration(in.n(255)) * 6 * time.Hour)
		}
		mode := in.n(2)
		states := make([]*Stored, 1+in.n(4))
		for i := range states {
			states[i] = in.state(cfg, from, to)
		}
		var fold *Range
		switch mode {
		case 0:
			fold = Fold(cfg, from, to, states...)
		case 1:
			fold = Fold(cfg, from, to, states...).Populated()
		case 2:
			fold = FoldWindow(cfg, states...)
		}
		got, err := fold.Stored().AppendBinary(nil, cfg.Origin)
		if err != nil {
			t.Fatal(err)
		}
		snap := fold.Snapshot()
		want, err := FromSnapshot(snap).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mode %d, [%s, %s): the fold ships %d bytes, its rendering %+v encodes to other %d", mode, from, to, len(got), snap, len(want))
		}
		if _, err := DecodeStored(cfg, got); err != nil {
			t.Fatalf("the shipped state does not decode: %v", err)
		}
	})
}
