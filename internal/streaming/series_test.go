package streaming

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
)

// ringModel is the hourly ring Analytics kept before its series, as the
// reference the series is held to: a ring of WindowHours slots, hour h in
// slot h mod w, that reshapes to a wider window whenever the span of its
// hours outgrows it. Everything but the hours — the census, late, prefix
// and district counters, the watermark — rides in c, a shard that counts
// a kept record or a merged bin only once the ring has taken it.
type ringModel struct {
	c *Analytics
	w int

	binHour  []int32
	binFlows []float64
	binBytes []float64
	maxHour  int
	minHour  int
	curHour  int
	curSlot  int
}

func newRingModel(cfg Config) *ringModel {
	cfg = cfg.withDefaults()
	m := &ringModel{w: cfg.WindowHours, maxHour: -1, minHour: -1, curHour: -1}
	m.binHour = make([]int32, m.w)
	m.binFlows = make([]float64, m.w)
	m.binBytes = make([]float64, m.w)
	for i := range m.binHour {
		m.binHour[i] = -1
	}
	m.c = New(cfg)
	return m
}

func (m *ringModel) binFor(h int) int {
	if h >= MaxWindowHours {
		return -1
	}
	m.ensureWindow(h)
	m.maxHour = max(m.maxHour, h)
	slot := h % m.w
	if m.binHour[slot] != int32(h) {
		m.binHour[slot] = int32(h)
		m.binFlows[slot] = 0
		m.binBytes[slot] = 0
	}
	m.curHour, m.curSlot = h, slot
	return slot
}

// ensureWindow widens the ring, once h is binned, to the span of its
// hours rounded up, so no two of them share a slot.
func (m *ringModel) ensureWindow(h int) {
	lo, hi := h, h
	if m.minHour >= 0 && m.minHour < lo {
		lo = m.minHour
	}
	if m.maxHour > hi {
		hi = m.maxHour
	}
	if need := hi - lo + 1; need > m.w {
		w := (need + windowQuantum - 1) / windowQuantum * windowQuantum
		hour := make([]int32, w)
		flows := make([]float64, w)
		bytes := make([]float64, w)
		for i := range hour {
			hour[i] = -1
		}
		for s, bh := range m.binHour {
			if bh >= 0 {
				d := int(bh) % w
				hour[d] = bh
				flows[d] = m.binFlows[s]
				bytes[d] = m.binBytes[s]
			}
		}
		m.binHour, m.binFlows, m.binBytes = hour, flows, bytes
		m.w = w
		m.curHour = -1
	}
	if m.minHour < 0 || h < m.minHour {
		m.minHour = h
	}
}

func (m *ringModel) sortedBins() []hourBin {
	n := 0
	for _, h := range m.binHour {
		if h >= 0 {
			n++
		}
	}
	bins := make([]hourBin, 0, n)
	w := len(m.binHour)
	s := 0
	if m.maxHour >= 0 {
		s = (m.maxHour + 1) % w
	}
	for range w {
		if h := m.binHour[s]; h >= 0 {
			bins = append(bins, hourBin{hour: int(h), flows: m.binFlows[s], bytes: m.binBytes[s]})
		}
		if s++; s == w {
			s = 0
		}
	}
	return bins
}

func (m *ringModel) Bounds() (minHour, maxHour int, ok bool) {
	if m.maxHour < 0 || m.minHour < 0 {
		return 0, 0, false
	}
	return m.minHour, m.maxHour, true
}

// render is Analytics.render over the ring.
func (m *ringModel) render(lo, hi int) *Snapshot {
	cfg := m.c.cfg
	s := m.c.counters.snapshot(cfg)
	if m.maxHour >= 0 && lo <= hi {
		s.SeriesStart = lo
		s.Hours = make([]HourPoint, 0, hi-lo+1)
		for h := lo; h <= hi; h++ {
			slot := h % m.w
			p := HourPoint{Hour: h, Time: cfg.Origin.Add(time.Duration(h) * time.Hour)}
			if m.binHour[slot] == int32(h) {
				p.Flows = m.binFlows[slot]
				p.Bytes = m.binBytes[slot]
			}
			s.Hours = append(s.Hours, p)
		}
	}
	s.Spikes = detectSpikes(s.Hours, cfg)
	return s
}

// Snapshot is the live view: the configured window's last hours.
func (m *ringModel) Snapshot() *Snapshot {
	return m.render(max(0, m.maxHour-m.c.cfg.WindowHours+1), m.maxHour)
}

// stored is Analytics.stored: c's counters, the ring's hours.
func (m *ringModel) stored() Stored {
	st := m.c.stored()
	st.window, st.maxHour, st.bins = m.w, m.maxHour, m.sortedBins()
	return st
}

func (m *ringModel) MarshalBinary() ([]byte, error) {
	st := m.stored()
	return st.AppendBinary(nil, m.c.cfg.Origin)
}

// Detach is Analytics.Detach with the ring's slot probes.
func (m *ringModel) Detach(from, to time.Time) *Stored {
	var bins []hourBin
	if first, last, ok := m.Bounds(); ok {
		lo, hi := clipHours(m.c.cfg.Origin, from, to)
		inRange := func(h int) bool { return h >= lo && h <= hi }
		bin := func(h int) {
			if s := h % m.w; m.binHour[s] == int32(h) {
				bins = append(bins, hourBin{hour: h, flows: m.binFlows[s], bytes: m.binBytes[s]})
			}
		}
		lo, hi = max(lo, first), min(hi, last)
		bins = make([]hourBin, 0, max(hi-lo+1, 0)+2)
		if !inRange(first) {
			bin(first)
		}
		for h := lo; h <= hi; h++ {
			bin(h)
		}
		if !inRange(last) && last != first {
			bin(last)
		}
	}
	st := m.c.Detach(from, to)
	st.window, st.maxHour, st.bins = m.w, m.maxHour, bins
	return st
}

// Ingest is Analytics.Ingest with the ring binning kept records.
func (m *ringModel) Ingest(recs []netflow.Record) {
	for i := range recs {
		r := recs[i:][:1]
		if m.c.cfilter.Classify(&r[0]) != core.Kept || r[0].First.Before(m.c.cfg.Origin) {
			m.c.Ingest(r) // dropped, or late before Origin
			continue
		}
		h := int(r[0].First.Sub(m.c.cfg.Origin) / time.Hour)
		if h >= MaxWindowHours {
			m.c.Ingest(r) // late, implausibly far ahead
			continue
		}
		slot := m.curSlot
		if h != m.curHour {
			if slot = m.binFor(h); slot < 0 {
				m.c.dropped[core.Kept]++
				m.c.late++
				continue
			}
		}
		m.binFlows[slot]++
		m.binBytes[slot] += float64(r[0].Bytes)
		m.c.Ingest(r)
	}
}

// MergeStored is Analytics.MergeStored with the ring binning the bins.
func (m *ringModel) MergeStored(st *Stored) {
	for _, bin := range st.bins {
		slot := m.binFor(bin.hour)
		if slot < 0 {
			m.c.late += uint64(bin.flows)
			continue
		}
		m.binFlows[slot] += bin.flows
		m.binBytes[slot] += bin.bytes
	}
	counters := *st
	counters.bins = nil
	m.c.MergeStored(&counters)
}

func (m *ringModel) Merge(other *ringModel) {
	st := other.stored()
	m.MergeStored(&st)
	if other.c.newestNano > m.c.newestNano {
		m.c.newestNano = other.c.newestNano
	}
}

// seriesFeed deals the steps FuzzSeriesLikeRing drives.
type seriesFeed struct{ stateFeed }

// config deals a shard configuration at one of the windows the ring met
// its edges at (a window of one hour, a short one, the growth quantum and
// one past it, and a long one).
func (f *seriesFeed) config() Config {
	windows := []int{1, 4, 64, 65, 12000}
	return Config{Origin: entime.StudyStart, WindowHours: windows[f.n(len(windows)-1)], TopK: 1 + f.n(4)}
}

// hour deals an hour to bin relative to the newest so far: near it either
// way, a window or more behind, far ahead, or at and past MaxWindowHours.
func (f *seriesFeed) hour(newest int) int {
	newest = max(newest, 0)
	switch f.n(7) {
	case 0, 1, 2:
		return max(newest+f.n(6)-3, 0)
	case 3:
		return max(newest-f.n(255)*(1+f.n(60)), 0)
	case 4:
		return newest + f.n(255)*(1+f.n(60))
	case 5:
		return MaxWindowHours - 3 + f.n(5)
	default:
		return f.n(255)
	}
}

// records deals a batch of records around newest: kept and dropped ones,
// before Origin, at every second of an hour.
func (f *seriesFeed) records(cfg Config, newest int) []netflow.Record {
	recs := make([]netflow.Record, 1+f.n(6))
	for i := range recs {
		at := cfg.Origin.Add(time.Duration(f.hour(newest))*time.Hour + time.Duration(f.n(255)*14)*time.Second)
		if f.n(9) == 0 {
			at = cfg.Origin.Add(-time.Duration(1+f.n(255)) * time.Minute)
		}
		recs[i] = keptRecord(at, client(f.n(7)), uint64(f.n(255)))
		if f.n(9) == 0 {
			recs[i].SrcPort = 80
		}
	}
	return recs
}

// state deals a merged state: ascending bins from an hour around newest,
// with gaps, zero-flow, -0 and NaN among them.
func (f *seriesFeed) state(newest int) *Stored {
	st := &Stored{window: 1 + f.n(255), maxHour: -1, late: uint64(f.n(3))}
	for i := range st.dropped {
		st.dropped[i] = uint64(f.n(9))
	}
	hour := f.hour(newest)
	for i := f.n(12); i > 0 && hour < math.MaxInt32; i-- {
		bin := hourBin{hour: hour, flows: f.float(), bytes: f.float()}
		switch f.n(5) {
		case 0:
			bin.flows = 0
		case 1:
			bin.flows = math.Copysign(0, -1)
		case 2:
			bin.flows = math.NaN()
		}
		st.bins = append(st.bins, bin)
		st.maxHour = hour
		hour += 1 + f.n(3)*f.n(200)
	}
	for i := f.n(3); i > 0; i-- {
		p := netip.PrefixFrom(client(f.n(7)), ClientPrefixBits).Masked()
		if !containsKey(st.prefixes, p) {
			st.prefixes, st.prefixCount = append(st.prefixes, p), append(st.prefixCount, uint64(f.n(99)))
		}
	}
	return st
}

// FuzzSeriesLikeRing holds the hourly series to the ring it replaced: any
// sequence of Ingest, MergeStored and Merge, at windows
// from one hour to over a year — hours in and out of order, before
// Origin, at or past MaxWindowHours, more than a window behind, merged
// bins of zero, -0 or NaN flows — leaves the shard encoding the same
// bytes, rendering the same snapshot — which is also the live view
// (FoldWindow) of its own state — reporting the same bounds and
// watermark, and detaching the same state for any range, after every step.
func FuzzSeriesLikeRing(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 3, 0, 1, 2, 3, 4, 5, 6, 7}, 30))                  // short window, records
	f.Add(bytes.Repeat([]byte{9, 1, 1, 4, 0, 3, 200, 17, 3, 0, 2, 1}, 40))         // stragglers and merges
	f.Add(bytes.Repeat([]byte{4, 0, 5, 2, 2, 0x7f, 0xf8, 1, 0, 0, 0, 0, 0}, 40))   // -0 and NaN bins
	f.Add(bytes.Repeat([]byte{8, 1, 7, 3, 4, 60, 5, 1, 1, 255, 3, 9, 33}, 40))     // a year's window, far jumps
	f.Add(bytes.Repeat([]byte{6, 0, 2, 5, 3, 1, 0, 2, 2, 250, 4, 1, 0, 6, 1}, 40)) // Merge of other shards
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &seriesFeed{stateFeed{data}}
		cfg := in.config()
		a, m := New(cfg), newRingModel(cfg)
		for step := 0; step < 24 && len(in.data) > 0; step++ {
			newest := m.maxHour
			switch op := in.n(2); op {
			case 0:
				recs := in.records(cfg, newest)
				a.Ingest(recs)
				m.Ingest(recs)
			case 1:
				st := in.state(newest)
				a.MergeStored(st)
				m.MergeStored(st)
			case 2:
				ocfg := in.config()
				other, otherRing := New(ocfg), newRingModel(ocfg)
				for i := in.n(2); i >= 0; i-- {
					recs := in.records(ocfg, newest)
					other.Ingest(recs)
					otherRing.Ingest(recs)
				}
				sameAsRing(t, fmt.Sprintf("step %d, the shard merged", step), other, otherRing, in)
				a.Merge(other)
				m.Merge(otherRing)
			}
			sameAsRing(t, fmt.Sprintf("step %d", step), a, m, in)
		}
	})
}

// sameAsRing fails t unless a and m encode, render, bound, stamp and
// detach (over a range drawn from in) alike.
func sameAsRing(t *testing.T, at string, a *Analytics, m *ringModel, in *seriesFeed) {
	t.Helper()
	got, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the series encodes %d bytes, the ring %d other ones\nseries %+v\nring   %+v", at, len(got), len(want), a.stored().bins, m.sortedBins())
	}
	gs, ws := a.Snapshot(), m.Snapshot()
	if !sameHours(gs.Hours, ws.Hours) {
		t.Fatalf("%s: the series renders hours %v, the ring %v", at, gs.Hours, ws.Hours)
	}
	// The definition Snapshot replaced, the live view of the shard's state.
	fs := FoldWindow(a.Config(), a.Detach(time.Time{}, time.Time{})).Snapshot()
	if !sameHours(gs.Hours, fs.Hours) {
		t.Fatalf("%s: the series renders hours %v, the live view of its state %v", at, gs.Hours, fs.Hours)
	}
	gs.Hours, ws.Hours, fs.Hours = nil, nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: the series renders\n%+v\nthe ring\n%+v", at, gs, ws)
	}
	if !reflect.DeepEqual(gs, fs) {
		t.Fatalf("%s: the series renders\n%+v\nthe live view of its state\n%+v", at, gs, fs)
	}
	glo, ghi, gok := a.Bounds()
	wlo, whi, wok := m.Bounds()
	if glo != wlo || ghi != whi || gok != wok {
		t.Fatalf("%s: the series bounds [%d, %d] %v, the ring [%d, %d] %v", at, glo, ghi, gok, wlo, whi, wok)
	}
	if got, want := a.Watermark(), m.c.Watermark(); !got.Equal(want) {
		t.Fatalf("%s: the series' watermark %s, the ring's %s", at, got, want)
	}
	var from, to time.Time
	origin := a.Config().Origin
	if in.n(2) > 0 {
		from = origin.Add(time.Duration(in.hour(m.maxHour))*time.Hour + time.Duration(in.n(1))*time.Minute)
	}
	if in.n(2) > 0 {
		to = origin.Add(time.Duration(in.hour(m.maxHour)) * time.Hour)
	}
	gst, wst := a.Detach(from, to), m.Detach(from, to)
	gb, err := gst.AppendBinary(nil, origin)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wst.AppendBinary(nil, origin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) || fmt.Sprintf("%v", gst.bins) != fmt.Sprintf("%v", wst.bins) {
		t.Fatalf("%s: over [%s, %s) the series detaches %v, the ring %v", at, from, to, gst.bins, wst.bins)
	}
}

// sameHours is whether two series are the same points, bit for bit: NaN
// flows equal each other, -0 does not equal 0.
func sameHours(a, b []HourPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Hour != b[i].Hour || !a[i].Time.Equal(b[i].Time) ||
			math.Float64bits(a[i].Flows) != math.Float64bits(b[i].Flows) ||
			math.Float64bits(a[i].Bytes) != math.Float64bits(b[i].Bytes) {
			return false
		}
	}
	return true
}
