package tier

// Fold: turning a closed run of lower-level frames into one tier frame.
// CloseRuns decides which runs are complete (deterministically, from
// metadata alone); FoldRaw and FoldFrames build the frame. Both fold
// oldest-first in WAL order and touch only commutative aggregates and
// order-invariant sketches, so the output bytes are independent of how
// many ingest workers produced the inputs.

import (
	"fmt"

	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
)

// Meta describes one candidate input frame for run grouping: the raw
// checkpoint frame's identity and coverage (a mirror of the store's
// frame metadata), or a day frame's FrameMeta when grouping for the
// week level.
type Meta struct {
	Seq              uint64
	BaseSeg          uint64
	CoveredSeg       uint64
	MinHour, MaxHour int64
}

// CloseRuns partitions metas — ordered by their WAL chain, i.e.
// metas[i+1].BaseSeg == metas[i].CoveredSeg — into closed level-runs,
// returned as half-open index ranges [lo, hi). A run collects
// consecutive frames whose MinHour falls in the same origin-relative
// level period (day or week) as the run's first houred frame;
// accounting-only frames (MinHour < 0) ride along with the current run.
// A run closes only when a LATER frame's MinHour lands in a later
// period — proof the period is complete — so the trailing run is always
// open and stays raw. A frame spanning several periods (a compacted
// survivor from before tiering was enabled) simply yields a fatter
// frame with more buckets; WAL disjointness, not time alignment, is
// what correctness rests on.
func CloseRuns(level Level, metas []Meta) [][2]int {
	width := int64(level.BucketHours())
	var runs [][2]int
	lo := 0
	runPeriod := int64(-1)
	for i, m := range metas {
		if m.MinHour < 0 {
			continue
		}
		p := m.MinHour / width
		if runPeriod < 0 {
			runPeriod = p
			continue
		}
		if p > runPeriod {
			runs = append(runs, [2]int{lo, i})
			lo = i
			runPeriod = p
		}
	}
	return runs
}

// Input is one raw checkpoint frame presented to FoldRaw: its metadata
// plus the restored analytics state.
type Input struct {
	Meta  Meta
	State *streaming.Analytics
}

// chainErr validates that consecutive WAL intervals chain exactly.
func chainErr(what string, prevCovered, base uint64, i int) error {
	if base != prevCovered {
		return fmt.Errorf("tier: %s %d breaks the WAL chain: base segment %d after covered %d", what, i, base, prevCovered)
	}
	return nil
}

// FoldRaw folds a closed run of raw checkpoint frames into one frame at
// the given level (normally LevelDay). cfg is the store's analytics
// configuration; the merge target runs in archive mode so no hour of
// the run can be evicted, mirroring the store's own no-eviction
// invariant.
func FoldRaw(level Level, seq uint64, cfg streaming.Config, inputs []Input) (*Frame, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("tier: fold of zero inputs")
	}
	f := &Frame{
		Level:      level,
		Seq:        seq,
		BaseSeg:    inputs[0].Meta.BaseSeg,
		CoveredSeg: inputs[len(inputs)-1].Meta.CoveredSeg,
		MinHour:    -1,
		MaxHour:    -1,
		Inputs:     uint32(len(inputs)),
		Dropped:    make([]uint64, nReasons),
		Prefixes:   sketch.NewHLL(),
		Presence:   sketch.NewQuantile(),
	}

	// Merge the run oldest-first at an archive window, and feed the
	// presence accumulator per input frame — presence is the number of
	// input frames a prefix appears in, which the merged state no
	// longer knows.
	cfg.Archive = true
	m := streaming.New(cfg)
	acc := NewSketchAccum()
	for i, in := range inputs {
		if i > 0 {
			if err := chainErr("input frame", inputs[i-1].Meta.CoveredSeg, in.Meta.BaseSeg, i); err != nil {
				return nil, err
			}
		}
		if in.Meta.MinHour >= 0 {
			if f.MinHour < 0 || in.Meta.MinHour < f.MinHour {
				f.MinHour = in.Meta.MinHour
			}
			if in.Meta.MaxHour > f.MaxHour {
				f.MaxHour = in.Meta.MaxHour
			}
		}
		m.Merge(in.State)
		acc.AddShard(in.State.EachPrefix)
	}
	acc.fill(f)

	snap := m.Snapshot()
	f.Total = uint64(snap.Census.Total)
	f.Kept = uint64(snap.Census.Kept)
	for reason, n := range snap.Census.Dropped {
		if int(reason) >= 0 && int(reason) < nReasons {
			f.Dropped[reason] = uint64(n)
		}
	}
	f.Late = snap.Late
	f.Located = snap.Located
	for _, d := range snap.Districts { // already sorted by ID
		f.Districts = append(f.Districts, District{ID: d.ID, Flows: d.Flows})
	}
	buckets := newBuckets(level)
	buckets.addHours(snap.Hours)
	f.Buckets = buckets.render(nil)
	return f, nil
}

// FoldFrames folds a closed run of same-level frames into one frame at
// the next level up (day frames into a week frame). Everything is a
// commutative sum or an order-invariant sketch merge, so no analytics
// state is needed.
func FoldFrames(level Level, seq uint64, inputs []*Frame) (*Frame, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("tier: fold of zero inputs")
	}
	f := &Frame{
		Level:      level,
		Seq:        seq,
		BaseSeg:    inputs[0].BaseSeg,
		CoveredSeg: inputs[len(inputs)-1].CoveredSeg,
		MinHour:    -1,
		MaxHour:    -1,
		Inputs:     uint32(len(inputs)),
		Dropped:    make([]uint64, nReasons),
		Prefixes:   sketch.NewHLL(),
		Presence:   sketch.NewQuantile(),
	}
	districts := map[string]uint64{}
	buckets := newBuckets(level)
	for i, in := range inputs {
		if i > 0 {
			if err := chainErr("input frame", inputs[i-1].CoveredSeg, in.BaseSeg, i); err != nil {
				return nil, err
			}
		}
		if in.Level+1 != level {
			return nil, fmt.Errorf("tier: folding level %s input into level %s frame", in.Level, level)
		}
		if in.MinHour >= 0 {
			if f.MinHour < 0 || in.MinHour < f.MinHour {
				f.MinHour = in.MinHour
			}
			if in.MaxHour > f.MaxHour {
				f.MaxHour = in.MaxHour
			}
		}
		f.Total += in.Total
		f.Kept += in.Kept
		for r, n := range in.Dropped {
			if r < nReasons {
				f.Dropped[r] += n
			}
		}
		f.Late += in.Late
		f.Located += in.Located
		for _, d := range in.Districts {
			districts[d.ID] += d.Flows
		}
		f.Prefixes.Merge(in.Prefixes)
		f.Presence.Merge(in.Presence)
		for _, b := range in.Buckets {
			buckets.add(b.StartHour, b.Flows, b.Bytes)
		}
	}
	f.Districts = sortDistricts(districts)
	f.Buckets = buckets.render(nil)
	return f, nil
}
