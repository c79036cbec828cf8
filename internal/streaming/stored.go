package streaming

import (
	"net/netip"
	"slices"
	"time"
)

// Stored is one decoded Analytics state in compact form: the header
// counters, the populated bins already in canonical (ascending hour)
// order, the prefix table as flat parallel slices and the district counts
// by index (DistrictSums). It has no series and no maps — a reader that only folds a checkpoint frame
// into a merge target (every historical query, compaction, recovery)
// needs neither; building them per frame read and scanning them back out
// was most of what a year-span query once cost.
//
// A Stored is immutable once built, so one value may be folded by any
// number of goroutines at once; the durable store keeps them cached per
// checkpoint frame. Besides DecodeStored there are two more sources,
// Analytics.Detach (a live shard, copied) and Merge (a fold, whole);
// AppendBinary encodes one, and Range.Stored is what a fold of them
// renders to.
type Stored struct {
	window  int
	maxHour int
	late    uint64
	located uint64
	dropped [nReasons]uint64

	bins []hourBin // ascending hour, one per hour

	// The counter tables in encoded order, one entry per key.
	prefixes    []netip.Prefix
	prefixCount []uint64
	// ids[i] is prefixes[i]'s id in table, when the state was resolved
	// against one (PrefixTable.Resolve); table is nil otherwise.
	table        *PrefixTable
	ids          []uint32
	hasDistricts bool
	districts    DistrictSums
}

// Size is the heap footprint of the decoded form in bytes, for callers
// that budget how many they keep.
func (st *Stored) Size() int {
	// Row sizes on a 64-bit platform: a bin is three words, a netip.Prefix
	// four, a string header two; every count is one, a prefix id half, and
	// a district takes its count and its flag.
	n := 256 + len(st.bins)*24 + len(st.prefixes)*(32+8) + len(st.ids)*4 + len(st.districts.flows)*9
	for _, id := range st.districts.extra {
		n += 16 + len(id)
	}
	return n
}

// Table is the prefix table st was resolved against, or nil.
func (st *Stored) Table() *PrefixTable { return st.table }

// Window is the window length the state was captured at.
func (st *Stored) Window() int { return st.window }

// Detach copies the live shard into compact form, for a fold that renders
// no hour outside [from, to) (zero bounds are open). Only the bins in that
// range are copied, plus the shard's oldest and newest bin: a fold reads
// the bins outside its range for nothing but how far they reach. The
// durable store detaches its live tails under the mutex ingest appends
// wait on, so the copy walks the hours of the range, not the series (its
// Bounds need no scan either), and the keys of the counter tables —
// prefixes, their ids, the district ids past the model's — are shared, not copied: the shard
// only ever appends to those, so the rows the copy holds never change (and
// an append to the copy's, capped, would reallocate).
// Only the counts are copied.
func (a *Analytics) Detach(from, to time.Time) *Stored {
	var bins []hourBin
	if first, last, ok := a.Bounds(); ok {
		lo, hi := clipHours(a.cfg.Origin, from, to)
		inRange := func(h int) bool { return h >= lo && h <= hi }
		bin := func(h int) {
			if i := a.hours.at(h); i >= 0 {
				bins = append(bins, hourBin{hour: h, flows: a.hours.flows[i], bytes: a.hours.bytes[i]})
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
	st := a.storedWith(bins)
	st.prefixes, st.ids = slices.Clip(st.prefixes), slices.Clip(st.ids)
	st.prefixCount = slices.Clone(st.prefixCount)
	d := &a.districts
	st.districts = DistrictSums{flows: slices.Clone(d.flows), named: slices.Clone(d.named), n: d.n, extra: slices.Clip(d.extra)}
	return &st
}

// stored views a live shard in the compact form, sharing its counter
// tables; the view must not outlive the next write to a.
func (a *Analytics) stored() Stored { return a.storedWith(a.hours.bins()) }

// storedWith is stored with the caller's choice of bins.
func (a *Analytics) storedWith(bins []hourBin) Stored {
	return Stored{
		window:       a.window,
		maxHour:      a.maxHour,
		late:         a.late,
		located:      a.located,
		dropped:      a.dropped,
		bins:         bins,
		prefixes:     a.prefixList,
		prefixCount:  a.prefixCount,
		table:        a.table,
		ids:          a.ids,
		hasDistricts: a.hasDistricts,
		districts:    a.districts,
	}
}

// Merge folds other into a without modifying other. Both shards must
// share one Origin; their window lengths may differ. Aggregation is
// commutative, so any merge order yields the same counters.
func (a *Analytics) Merge(other *Analytics) {
	st := other.stored()
	a.MergeStored(&st)
	if other.newestNano > a.newestNano {
		a.newestNano = other.newestNano
	}
}

// MergeStored folds a decoded state into a, exactly as
// Merge(UnmarshalAnalyticsStored(data)) would for the bytes st was
// decoded from. st is not modified. The durable store folds a frozen tail
// whose frame could not be written back into its tail this way.
func (a *Analytics) MergeStored(st *Stored) {
	// Every bin enters through bin, under ingest's bound.
	for _, bin := range st.bins {
		a.addBin(bin.hour, bin.flows, bin.bytes)
	}
	a.mergeCounters(st)
	for i, p := range st.prefixes {
		a.prefixCount[a.internPrefix(p)] += st.prefixCount[i]
	}
}
