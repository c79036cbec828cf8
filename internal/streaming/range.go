package streaming

import (
	"math"
	"net/netip"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/geo"
)

// Range is the fold target of one read: what New + MergeStored + Snapshot
// compute, without building a shard. A read folds states it will never
// ingest into: its hours are a shard's series sized once, to the hours
// the answer can render, beside the counters a live shard has (a shard's
// Snapshot renders its own through a Range), and nothing in it is
// proportional to Config.WindowHours.
//
// Fold is the target of a time-range query; the Range reports the window
// that holds every selected hour: cfg.WindowHours, or the span of the
// folded bins when that is longer. FoldWindow is the live view, a
// shard's Snapshot included, and keeps cfg.WindowHours: it renders the
// cfg.WindowHours hours up to the newest folded bin. Neither depends on
// the order of the states, and in neither does a bin come late for being
// old: late counts only the late counts the states carry (no state holds
// an hour past MaxWindowHours).
type Range struct {
	cfg Config // WindowHours: the window a rendering reports
	counters
	populated bool

	// hours accumulates the hours a rendering shows; its first is the
	// oldest bin of any folded state, which may lie before them.
	hours series
	// table is what rowIDs index: the prefix table the fold added by.
	table *PrefixTable
}

// Fold folds states, in any order, into the answer to a query over
// [from, to); zero bounds are open. Of cfg it reads Origin, WindowHours
// (the live window the answer reports unless the folded span is longer),
// TopK, the spike parameters and Model. The states are not
// modified.
func Fold(cfg Config, from, to time.Time, states ...*Stored) *Range {
	lo, hi := clipHours(cfg.withDefaults().Origin, from, to)
	return fold(cfg, false, lo, hi, states)
}

// FoldWindow folds states, in any order, into the live view: the last
// cfg.WindowHours hours of everything they hold.
func FoldWindow(cfg Config, states ...*Stored) *Range {
	return fold(cfg, true, 0, math.MaxInt, states)
}

const wholeBins = -1 // a clipLo: Merge's columns start at the oldest bin

func fold(cfg Config, window bool, clipLo, clipHi int, states []*Stored) *Range {
	cfg = cfg.withDefaults()
	r := &Range{hours: series{first: math.MaxInt}}
	last := -1
	for _, st := range states {
		if n := len(st.bins); n > 0 {
			r.hours.first, last = min(r.hours.first, st.bins[0].hour), max(last, st.bins[n-1].hour)
		}
	}
	if !window && last >= 0 {
		cfg.WindowHours = max(cfg.WindowHours, last-r.hours.first+1)
	}
	if clipLo == wholeBins {
		clipLo = r.hours.first
	}
	if lo, hi := max(clipLo, last-cfg.WindowHours+1), min(clipHi, last); lo <= hi {
		r.hours.lo = lo
		r.hours.widen(0, hi-lo+1)
	}
	r.cfg = cfg
	for _, st := range states {
		for _, bin := range st.bins {
			if i := bin.hour - r.hours.lo; uint(i) < uint(len(r.hours.set)) {
				r.hours.add(i, bin.flows, bin.bytes)
			}
		}
		r.mergeCounters(st)
	}
	r.addPrefixes(states)
	return r
}

// addPrefixes adds the states' prefix rows by id: a pooled dense array
// maps each id to its row, so a row is found by one indexed read, and the
// rows come in first-seen order, which is all the rendering reads of them
// (topPrefixes orders them totally). States resolved against another table
// than the first one's, or none, are interned into it first.
func (r *Range) addPrefixes(states []*Stored) {
	t := tableOf(states)
	ids := make([][]uint32, len(states))
	most := 0
	for i, st := range states {
		ids[i] = t.IDs(st)
		most = max(most, len(ids[i]))
	}
	r.table, r.byID = t, t.Prefixes()
	slots := rowSlotPool.Get().(*[]uint32)
	if len(*slots) < len(r.byID) {
		*slots = make([]uint32, len(r.byID)+len(r.byID)/8)
	}
	row := *slots // 1 + an id's row; 0 but at rowIDs until the reset below
	r.rowIDs = make([]uint32, 0, most+most/8)
	r.prefixCount = make([]uint64, 0, most+most/8)
	for i, st := range states {
		for j, id := range ids[i] {
			if row[id] == 0 {
				r.rowIDs = append(r.rowIDs, id)
				r.prefixCount = append(r.prefixCount, 0)
				row[id] = uint32(len(r.rowIDs))
			}
			r.prefixCount[row[id]-1] += st.prefixCount[j]
		}
	}
	for _, id := range r.rowIDs {
		row[id] = 0
	}
	rowSlotPool.Put(slots)
}

// Origin is the instant hour 0 is anchored at, in its rendering's zone.
func (r *Range) Origin() time.Time { return r.cfg.Origin }

// Model is what names the fold's districts when it renders.
func (r *Range) Model() *geo.Model { return r.cfg.Model }

// Populated makes the rendered series start no earlier than the first
// folded bin, and returns r: the hours before a long-horizon answer's raw
// residual are covered by tier buckets, not empty.
func (r *Range) Populated() *Range {
	r.populated = true
	return r
}

// Series is the rendered hours: flows[i] and bytes[i] are hour lo+i's.
// The slices are the fold's own, to be read only.
func (r *Range) Series() (lo int, flows, bytes []float64) {
	skip := 0
	if r.populated {
		skip = min(max(r.hours.first-r.hours.lo, 0), len(r.hours.flows))
	}
	return r.hours.lo + skip, r.hours.flows[skip:], r.hours.bytes[skip:]
}

// Totals is what the fold holds besides its hours and prefixes: the drop
// census, the late and located counts, and the district sums, which are
// the fold's own, to be read only.
func (r *Range) Totals() (census core.Census, late, located uint64, districts *DistrictSums) {
	return r.census(), r.late, r.located, &r.districts
}

// Snapshot renders the fold: what Snapshot renders of a ring that folded
// the same states, trimmed to the query's range.
func (r *Range) Snapshot() *Snapshot {
	s := r.counters.snapshot(r.cfg)
	if lo, flows, bytes := r.Series(); len(flows) > 0 {
		s.SeriesStart = lo
		s.Hours = make([]HourPoint, len(flows))
		for i := range flows {
			s.Hours[i] = HourPoint{Hour: lo + i, Time: r.cfg.Origin.Add(time.Duration(lo+i) * time.Hour), Flows: flows[i], Bytes: bytes[i]}
		}
	}
	s.Spikes = detectSpikes(s.Hours, r.cfg)
	return s
}

// Stored is the state a rendering carries, in compact form and straight
// from the fold: the shard's top-K, every district, every hour of the
// rendered span as a bin — the live shard cannot tell a zero-flow gap
// hour from an empty one either — and no HourPoint, name or spike in
// between. It encodes to FromSnapshot(r.Snapshot()).MarshalBinary(). A
// shard answering the query router ships it, the router folds one per
// shard, and the re-rendered union is byte-identical to what a single
// node holding every record would have served.
func (r *Range) Stored() *Stored {
	lo, flows, bytes := r.Series()
	top := r.topPrefixes(r.cfg.TopK)
	st := &Stored{window: r.cfg.WindowHours, maxHour: lo + len(flows) - 1, late: r.late, located: r.located, dropped: r.dropped,
		bins: make([]hourBin, len(flows)), prefixes: make([]netip.Prefix, len(top)), prefixCount: make([]uint64, len(top))}
	if len(flows) == 0 {
		st.maxHour = -1
	}
	for i := range flows {
		st.bins[i] = hourBin{hour: lo + i, flows: flows[i], bytes: bytes[i]}
	}
	for i, pc := range top {
		st.prefixes[i], st.prefixCount[i] = pc.Prefix, pc.Flows
	}
	// A rendering cannot tell a rollup without rows and records from none.
	st.districts = r.districts
	st.hasDistricts = r.districts.Len() > 0 || r.located > 0
	return st
}

// Merge folds states, in any order, into one state kept whole, sharing
// the fold's tables: every hour a state held a bin for, every prefix row
// with its id in the fold's table, the counters, and Fold's window over
// open bounds. A durable store compacts frames and merges runs with it.
func Merge(cfg Config, states ...*Stored) *Stored {
	r := fold(cfg, false, wholeBins, math.MaxInt, states)
	st := &Stored{window: r.cfg.WindowHours, maxHour: -1, late: r.late, located: r.located, dropped: r.dropped,
		bins: r.hours.bins(), prefixes: make([]netip.Prefix, len(r.rowIDs)), prefixCount: r.prefixCount, table: r.table, ids: r.rowIDs,
		hasDistricts: r.hasDistricts, districts: r.districts}
	if n := len(st.bins); n > 0 {
		st.maxHour = st.bins[n-1].hour
	}
	for i, id := range r.rowIDs {
		st.prefixes[i] = r.byID[id]
	}
	return st
}
