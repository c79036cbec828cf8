package streaming

import (
	"encoding/binary"
	"net/netip"

	"cwatrace/internal/core"
)

// counters is the half of a shard's state that is not time-resolved: the
// drop census, the late and located totals, the interned per-prefix flow
// counts and the per-district ones, by index (DistrictSums). A live shard
// (Analytics) and a query's fold target (Range) differ in how they keep
// the hourly series and how they find a prefix's row, so both embed this
// and share one fold of the rest (mergeCounters) and one rendering
// (snapshot).
type counters struct {
	dropped [nReasons]uint64
	late    uint64
	located uint64

	// Prefix counters, one row per prefix in first-seen order. A live
	// shard finds a row by interning: prefix4Idx indexes the IPv4 prefixes
	// at exactly ClientPrefixBits (every kept record's prefix — the filter
	// only keeps IPv4) by the masked big-endian address word, no hashing
	// of a 32-byte netip.Prefix on the hot path; prefixIdx indexes the
	// rest. A fold finds a row by prefix id (Range.addPrefixes) and keeps
	// the row's id, not its prefix: rowIDs over byID, its table's prefixes.
	prefixIdx   map[netip.Prefix]uint32
	prefix4Idx  map[uint32]uint32
	prefixList  []netip.Prefix
	prefixCount []uint64
	rowIDs      []uint32
	byID        []netip.Prefix

	// District counters by index in the one district id space;
	// hasDistricts is whether the rollup is on.
	hasDistricts bool
	districts    DistrictSums
}

func newCounters() counters {
	return counters{
		prefixIdx:  make(map[netip.Prefix]uint32),
		prefix4Idx: make(map[uint32]uint32),
	}
}

// internPrefix returns the counter index for p, allocating one on first
// sight and registering the IPv4 fast-index entry when p matches the
// hot-path shape.
func (c *counters) internPrefix(p netip.Prefix) uint32 {
	// A fold interns every row of every table it merges, and nearly all
	// of them have the hot-path shape.
	hot := p.Bits() == ClientPrefixBits && p.Addr().Is4()
	var key uint32
	if hot {
		b := p.Addr().As4()
		key = binary.BigEndian.Uint32(b[:])
		if idx, ok := c.prefix4Idx[key]; ok {
			return idx
		}
	} else if idx, ok := c.prefixIdx[p]; ok {
		return idx
	}
	idx := uint32(len(c.prefixList))
	c.prefixList = append(c.prefixList, p)
	c.prefixCount = append(c.prefixCount, 0)
	if hot {
		c.prefix4Idx[key] = idx
	} else {
		c.prefixIdx[p] = idx
	}
	return idx
}

// mergeCounters folds everything of st but its hourly bins and its prefix
// rows: a live shard interns those (Analytics.MergeStored), a fold adds them
// by id (Range.addPrefixes).
func (c *counters) mergeCounters(st *Stored) {
	for i, n := range st.dropped {
		c.dropped[i] += n
	}
	c.late += st.late
	if st.hasDistricts {
		// Adopt the rollup even if this shard has no geolocation sidecar:
		// checkpoint frames carry district counts that must survive a
		// merge into a DB-less shard (a read-only query opens the store
		// without the sidecar the collector ran with).
		c.hasDistricts = true
		c.districts.Merge(&st.districts)
	}
	c.located += st.located
}

// snapshot renders everything of a Snapshot but its hourly series and
// the spikes detected on it.
func (c *counters) snapshot(cfg Config) *Snapshot {
	s := &Snapshot{
		Origin:      cfg.Origin,
		WindowHours: cfg.WindowHours,
		Late:        c.late,
		Located:     c.located,
	}

	s.Census = c.census()
	s.TopPrefixes = c.topPrefixes(cfg.TopK)

	if c.hasDistricts {
		s.Districts = c.districts.Counts(cfg.Model != nil)
	}
	return s
}

// census is the drop census in the batch pipeline's shape.
func (c *counters) census() core.Census {
	census := core.Census{Dropped: make(map[core.DropReason]int)}
	for i, n := range c.dropped {
		census.Total += int(n)
		if core.DropReason(i) == core.Kept {
			census.Kept = int(n)
		} else if n > 0 {
			census.Dropped[core.DropReason(i)] = int(n)
		}
	}
	return census
}

// prefix is the prefix of row i.
func (c *counters) prefix(i uint32) netip.Prefix {
	if c.byID != nil {
		return c.byID[c.rowIDs[i]]
	}
	return c.prefixList[i]
}

// outranks reports whether interned prefix i ranks before j on the
// leaderboard: more flows first, ties in prefix order. Interned prefixes
// are distinct, so the order is total.
func (c *counters) outranks(i, j uint32) bool {
	if c.prefixCount[i] != c.prefixCount[j] {
		return c.prefixCount[i] > c.prefixCount[j]
	}
	return lessPrefix(c.prefix(i), c.prefix(j))
}

// topPrefixes returns the k busiest prefixes in leaderboard order. Every
// poll renders a leaderboard and the table holds every prefix the range
// saw, so the table is not sorted: one pass keeps the k best rows so far
// in a heap with the worst of them at the root — nearly every row loses
// to the root on its flow count alone — and only those k are sorted, by
// popping them.
func (c *counters) topPrefixes(k int) []PrefixCount {
	k = max(0, min(k, len(c.prefixCount)))
	heap := make([]uint32, k)
	down := func(at int) {
		for {
			worse := 2*at + 1
			if worse >= len(heap) {
				return
			}
			if right := worse + 1; right < len(heap) && c.outranks(heap[worse], heap[right]) {
				worse = right
			}
			if !c.outranks(heap[at], heap[worse]) {
				return
			}
			heap[at], heap[worse] = heap[worse], heap[at]
			at = worse
		}
	}
	for i := range heap {
		heap[i] = uint32(i)
	}
	for at := k/2 - 1; at >= 0; at-- {
		down(at)
	}
	for row := uint32(k); k > 0 && int(row) < len(c.prefixCount); row++ {
		if c.outranks(row, heap[0]) {
			heap[0] = row
			down(0)
		}
	}
	top := make([]PrefixCount, k)
	for n := k - 1; n >= 0; n-- { // the worst of what is left is the last of it
		top[n] = PrefixCount{Prefix: c.prefix(heap[0]), Flows: c.prefixCount[heap[0]]}
		heap[0], heap = heap[n], heap[:n]
		down(0)
	}
	return top
}
