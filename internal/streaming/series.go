package streaming

// series is an hourly flow series, dense over the hours it holds:
// flows[i] and bytes[i] are hour lo+i's, and set[i] is whether a bin was
// added for it — a bin may carry zero flows, so a zero count cannot tell.
// first is the oldest bin added (math.MaxInt before any). A shard's
// (Analytics) grows at either end to hold every bin it is given and never
// drops an hour; the hours before first are room it grew backward into,
// every other unset hour one nothing landed in. A fold's (Range) is sized
// once to the hours its answer renders; its first may lie before them.
// Nothing in either is proportional to Config.WindowHours.
type series struct {
	lo, first    int
	flows, bytes []float64
	set          []bool
}

// at is hour h's index if it is a bin, else -1.
func (s *series) at(h int) int {
	if i := h - s.lo; uint(i) < uint(len(s.set)) && s.set[i] {
		return i
	}
	return -1
}

// claim returns hour h's index (h >= 0), marked a bin, growing the series
// to hold it.
func (s *series) claim(h int) int {
	n := len(s.set)
	switch {
	case n == 0:
		s.lo = h
		s.widen(0, 1)
	case h < s.lo:
		// Room again as long as the series, so hours arriving newest
		// first reallocate it log(span) times, not once an hour.
		lo := max(h-n, 0)
		s.widen(s.lo-lo, 0)
		s.lo = lo
	case h >= s.lo+n:
		s.widen(0, h-s.lo-n+1)
	}
	s.first = min(s.first, h)
	s.set[h-s.lo] = true
	return h - s.lo
}

// widen puts front unset hours before the series and back after it.
func (s *series) widen(front, back int) {
	s.flows, s.bytes, s.set = grow(s.flows, front, back), grow(s.bytes, front, back), grow(s.set, front, back)
}

// grow is col with front zero values before it and back after it. Only
// growth at the back keeps col's room; the rest is allocated exactly.
func grow[T any](col []T, front, back int) []T {
	if front == 0 && col != nil {
		return append(col, make([]T, back)...)
	}
	out := make([]T, front+len(col)+back)
	copy(out[front:], col)
	return out
}

// add adds a bin to hour lo+i: the one way a bin's counts enter a series.
func (s *series) add(i int, flows, bytes float64) {
	s.flows[i] += flows
	s.bytes[i] += bytes
	s.set[i] = true
}

// bins returns the bins, oldest hour first.
func (s *series) bins() []hourBin {
	n := 0
	for _, set := range s.set {
		if set {
			n++
		}
	}
	bins := make([]hourBin, 0, n)
	for i, set := range s.set {
		if set {
			bins = append(bins, hourBin{hour: s.lo + i, flows: s.flows[i], bytes: s.bytes[i]})
		}
	}
	return bins
}

// last views the n hours up to the newest bin, the last hour of a
// shard's series: its columns, unless the view starts before them, then a
// copy with the hours before them unset.
func (s *series) last(n int) series {
	v := *s
	if lo := max(s.lo+len(s.set)-n, 0); lo < s.lo {
		v.widen(s.lo-lo, 0)
		v.lo = lo
	} else {
		v.lo, v.flows, v.bytes, v.set = lo, s.flows[lo-s.lo:], s.bytes[lo-s.lo:], s.set[lo-s.lo:]
	}
	return v
}
