package streaming

// series is a shard's hourly flow series, dense over the hours it holds:
// cells[i] is hour lo+i. A cell is a bin only where set — a merged bin may
// carry zero flows, so a zero count cannot tell. first is the oldest bin;
// the cells before it are room the series grew backward into, every other
// unset cell is an hour nothing landed in. It grows at either end and
// never drops an hour. Nothing in it is proportional to
// Config.WindowHours: a shard pays for the span of its bins.
type series struct {
	lo, first int
	cells     []cell
}

type cell struct {
	flows, bytes float64
	set          bool
}

// empty reports whether the series holds no bin.
func (s *series) empty() bool { return len(s.cells) == 0 }

// claim returns hour h's cell (h >= 0), marked a bin, growing the series
// to hold it.
func (s *series) claim(h int) *cell {
	n := len(s.cells)
	switch {
	case n == 0:
		s.lo, s.first, s.cells = h, h, append(s.cells[:0], cell{})
	case h < s.lo:
		// Room again as long as the series, so hours arriving newest
		// first reallocate it log(span) times, not once an hour.
		lo := max(h-n, 0)
		cells := make([]cell, s.lo-lo+n)
		copy(cells[s.lo-lo:], s.cells)
		s.lo, s.cells = lo, cells
	case h >= s.lo+n:
		s.cells = append(s.cells, make([]cell, h-s.lo-n+1)...)
	}
	s.first = min(s.first, h)
	c := &s.cells[h-s.lo]
	c.set = true
	return c
}

// at is hour h's cell if it is a bin, else nil.
func (s *series) at(h int) *cell {
	if i := uint(h - s.lo); i < uint(len(s.cells)) && s.cells[i].set {
		return &s.cells[i]
	}
	return nil
}

// bins returns the bins, oldest hour first.
func (s *series) bins() []hourBin {
	n := 0
	for i := range s.cells {
		if s.cells[i].set {
			n++
		}
	}
	bins := make([]hourBin, 0, n)
	for i, c := range s.cells {
		if c.set {
			bins = append(bins, hourBin{hour: s.lo + i, flows: c.flows, bytes: c.bytes})
		}
	}
	return bins
}

// fill makes the series hold exactly bins, which ascend by hour.
func (s *series) fill(bins []hourBin) {
	if len(bins) == 0 {
		return
	}
	s.lo, s.first = bins[0].hour, bins[0].hour
	s.cells = make([]cell, bins[len(bins)-1].hour-s.lo+1)
	for _, bin := range bins {
		s.cells[bin.hour-s.lo] = cell{flows: bin.flows, bytes: bin.bytes, set: true}
	}
}
