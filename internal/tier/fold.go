package tier

// Fold: turning a closed run of lower-level frames into one tier frame.
// CloseRuns decides which runs are complete (deterministically, from
// metadata alone); every input goes to a Builder — the accumulator a
// query sums the same aggregates with — whose Fold checks the run and
// renders its frame: FoldStates hands it raw checkpoint states for a day
// frame, the store hands a week builder a closed week's day frames. Inputs
// fold oldest-first in WAL order and touch only commutative aggregates and
// order-invariant sketches, so the output bytes are independent of how
// many ingest workers produced the inputs.

import (
	"fmt"
	"time"

	"cwatrace/internal/streaming"
)

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

// Fold renders the sums as the frame seq that folds inputs, a closed run
// of frames one level below the builder's (raw checkpoint frames, level
// zero, for a day frame), once it has checked that they are that level and
// their WAL intervals chain exactly. The frame covers the union of their
// intervals and of their hour bounds (accounting-only inputs have none).
func (b *Builder) Fold(seq uint64, inputs []Meta) (*Frame, error) {
	level := b.res.Level()
	if len(inputs) == 0 {
		return nil, fmt.Errorf("tier: fold of zero inputs")
	}
	run := Meta{Level: level, Seq: seq, BaseSeg: inputs[0].BaseSeg, CoveredSeg: inputs[len(inputs)-1].CoveredSeg, MinHour: -1, MaxHour: -1}
	for i, in := range inputs {
		if in.Level+1 != level {
			return nil, fmt.Errorf("tier: folding level %s input into level %s frame", in.Level, level)
		}
		if i > 0 && in.BaseSeg != inputs[i-1].CoveredSeg {
			return nil, fmt.Errorf("tier: input frame %d breaks the WAL chain: base segment %d after covered %d", i, in.BaseSeg, inputs[i-1].CoveredSeg)
		}
		if in.MinHour >= 0 {
			if run.MinHour < 0 || in.MinHour < run.MinHour {
				run.MinHour = in.MinHour
			}
			run.MaxHour = max(run.MaxHour, in.MaxHour)
		}
	}
	return b.Frame(run, len(inputs))
}

// FoldStates folds a closed run of raw checkpoint frames — their metadata
// and their decoded states, oldest first — into one frame at the given
// level (normally LevelDay). cfg is the store's analytics configuration.
// The run's exact part is one streaming.Fold, which evicts no hour of it,
// mirroring the store's own no-eviction invariant; presence is the number
// of input frames a prefix appears in, which the merged state no longer
// knows, so the sketches are fed per input.
func FoldStates(level Level, seq uint64, cfg streaming.Config, inputs []Meta, states []*streaming.Stored) (*Frame, error) {
	acc := NewSketchAccum()
	for _, st := range states {
		acc.AddShard(st)
	}
	// The live window means nothing to a fold and would size its rendering:
	// at one hour the target spans the run's own bins and no more.
	cfg.WindowHours = 1
	b := NewBuilder(level.Resolution(), cfg.Origin)
	b.AddResidual(streaming.Fold(cfg, time.Time{}, time.Time{}, states...), acc, 0)
	return b.Fold(seq, inputs)
}

// Input is one raw checkpoint frame presented to FoldRaw: its metadata
// plus the restored analytics state.
type Input struct {
	Meta  Meta
	State *streaming.Analytics
}

// FoldRaw is FoldStates for callers that hold live shards and not decoded
// states: it detaches each and folds the copies.
func FoldRaw(level Level, seq uint64, cfg streaming.Config, inputs []Input) (*Frame, error) {
	metas := make([]Meta, len(inputs))
	states := make([]*streaming.Stored, len(inputs))
	for i, in := range inputs {
		metas[i], states[i] = in.Meta, in.State.Detach(time.Time{}, time.Time{})
	}
	return FoldStates(level, seq, cfg, metas, states)
}
