package streaming

import (
	"sort"
	"time"
)

// Range is the fold target of one time-range query: what New + MergeStored
// + SnapshotRange compute, without the ring. A query folds states it will
// never ingest into, so it needs no slots to slide and nothing evicted:
// the hourly series is two flat arrays over the hours the answer can
// render — [from, to) clipped to what the folded states hold — and the
// rest of the state is the counters a live shard has. Nothing a Range
// allocates, fills or scans is proportional to Config.WindowHours; the
// sliding ring stays what live ingestion, the live snapshot, compaction
// and recovery use.
//
// Where the ring of a historical query had to be widened by hand to hold
// every selected hour (merging archived hours at a narrower window evicts
// them), a Range reports the window that widening would have produced:
// cfg.WindowHours, or the span of the folded bins when that is longer.
type Range struct {
	cfg Config
	counters

	// clipLo..clipHi are the hours [from, to) admits. flows[i]/bytes[i]
	// accumulate hour lo+i; the arrays cover only clipped hours some
	// folded state had a bin for.
	clipLo, clipHi int
	lo             int
	flows, bytes   []float64

	// minHour/maxHour are the extremes over every plausible bin folded,
	// inside [from, to) or not (-1 before any): where a ring's window
	// would have come to rest.
	minHour, maxHour int
}

// NewRange creates an empty fold target for [from, to); zero bounds are
// open. Of cfg it reads Origin, WindowHours (the live window the answer
// reports unless the folded span is longer), TopK, PrefixBits, the spike
// parameters and Model.
func NewRange(cfg Config, from, to time.Time) *Range {
	cfg = cfg.withDefaults()
	r := &Range{cfg: cfg, counters: newCounters(cfg.PrefixBits), minHour: -1, maxHour: -1}
	r.clipLo, r.clipHi = clipHours(cfg.Origin, from, to)
	return r
}

// cover grows the series to hold the clipped part of hours first..last.
func (r *Range) cover(first, last int) {
	first, last = max(first, r.clipLo), min(last, r.clipHi)
	if first > last {
		return
	}
	if r.flows == nil {
		r.lo = first
	}
	lo, hi := min(first, r.lo), max(last, r.lo+len(r.flows)-1)
	n := hi - lo + 1
	if lo == r.lo && n <= cap(r.flows) {
		r.flows, r.bytes = r.flows[:n], r.bytes[:n]
		return
	}
	// States fold oldest first, so the series grows at its newest end:
	// leave as much room there again (never past the range), and a fold
	// of many frames reallocates O(log hours) times, not once per frame.
	room := n + min(n, r.clipHi-hi)
	flows, bytes := make([]float64, n, room), make([]float64, n, room)
	copy(flows[r.lo-lo:], r.flows)
	copy(bytes[r.lo-lo:], r.bytes)
	r.lo, r.flows, r.bytes = lo, flows, bytes
}

// MergeStored folds a decoded state into r, as Analytics.MergeStored
// folds it into a ring wide enough to evict nothing. st is not modified.
func (r *Range) MergeStored(st *Stored) {
	// Bins ascend, so the implausible ones (see binFor) are a suffix;
	// they count late here exactly as they do against a ring.
	n := len(st.bins)
	for ; n > 0 && st.bins[n-1].hour >= MaxWindowHours; n-- {
		r.late += uint64(st.bins[n-1].flows)
	}
	if bins := st.bins[:n]; n > 0 {
		first, last := bins[0].hour, bins[n-1].hour
		if r.minHour < 0 || first < r.minHour {
			r.minHour = first
		}
		r.maxHour = max(r.maxHour, last)
		r.cover(first, last)
		for _, bin := range bins[sort.Search(n, func(i int) bool { return bins[i].hour >= r.clipLo }):] {
			if bin.hour > r.clipHi {
				break
			}
			r.flows[bin.hour-r.lo] += bin.flows
			r.bytes[bin.hour-r.lo] += bin.bytes
		}
	}
	r.mergeCounters(st)
}

// Snapshot renders the range: what SnapshotRange(from, to) renders of a
// ring that folded the same states.
func (r *Range) Snapshot() *Snapshot { return r.render(false) }

// SnapshotPopulated is Snapshot with the series starting no earlier than
// the first folded bin, like SnapshotPopulatedRange.
func (r *Range) SnapshotPopulated() *Snapshot { return r.render(true) }

func (r *Range) render(populated bool) *Snapshot {
	cfg := r.cfg
	if r.minHour >= 0 {
		cfg.WindowHours = max(cfg.WindowHours, r.maxHour-r.minHour+1)
	}
	lo, hi := max(r.clipLo, r.maxHour-cfg.WindowHours+1), min(r.clipHi, r.maxHour)
	if populated {
		lo = max(lo, r.minHour)
	}
	s := r.counters.snapshot(cfg)
	if r.maxHour >= 0 && lo <= hi {
		s.SeriesStart = lo
		s.Hours = make([]HourPoint, 0, hi-lo+1)
		for h := lo; h <= hi; h++ {
			p := HourPoint{Hour: h, Time: cfg.Origin.Add(time.Duration(h) * time.Hour)}
			if i := h - r.lo; i >= 0 && i < len(r.flows) {
				p.Flows, p.Bytes = r.flows[i], r.bytes[i]
			}
			s.Hours = append(s.Hours, p)
		}
	}
	s.Spikes = detectSpikes(s.Hours, cfg)
	return s
}
