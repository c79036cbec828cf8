package store

// The store's long-horizon tier layer: fold scheduling and tier frame
// persistence (see internal/tier for the subsystem itself, checkpoint.go
// for the loading and query.go for the walk every level shares with the
// checkpoint frames). Tier frames are additive, derived data — a fold
// writes `tier-d-…`/`tier-w-…` files next to the WAL and checkpoints,
// never deletes its inputs, and registers the frame in memory only after
// the file is durable. Crash anywhere leaves either no tier frame (the
// fold simply re-runs at the next checkpoint: its candidates are
// recomputed from what is on disk) or a complete one; raw frames remain
// the source of truth for hour-resolution answers either way.

import (
	"context"
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// horizon reports a level's WAL coverage horizon: the highest covered
// segment of any frame at the level (folds run oldest-first, so coverage
// is a prefix of the WAL). list is sorted by BaseSeg.
func horizon(list []frameMeta) uint64 {
	if len(list) == 0 {
		return 0
	}
	return list[len(list)-1].CoveredSeg
}

// tierFold runs the fold scheduler after a checkpoint (caller holds
// ckptMu): every closed day run of checkpoint frames folds into a day
// frame, then every closed week of day frames folds into a week frame.
// One run per iteration, so a long backlog folds incrementally but
// completely.
func (s *Store) tierFold(ctx context.Context) error {
	for _, level := range []tier.Level{tier.LevelDay, tier.LevelWeek} {
		for {
			did, err := s.tierFoldOnce(ctx, level)
			if err != nil {
				return err
			}
			if !did {
				break
			}
		}
	}
	return nil
}

// foldCandidates snapshots, under mu, the frames of the level below that
// lie past the level's horizon: what could fold into it. A frame
// straddling the horizon stalls the fold safely: folding would
// double-count its WAL slice, so nothing folds until the (guarded)
// compactor can no longer produce one. Only a checkpoint frame can
// straddle; a day frame is never compacted.
func (s *Store) foldCandidates(level tier.Level) []frameMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := horizon(s.levels[level])
	var cand []frameMeta
	for _, fm := range s.levels[level-1] {
		if fm.BaseSeg >= covered {
			cand = append(cand, fm)
		} else if fm.CoveredSeg > covered {
			return nil
		}
	}
	return cand
}

// tierFoldOnce folds the level's oldest closed run — checkpoint frames'
// states, straight from the decoded-frame cache, into a day frame; day
// frames into a week frame — under its own tracing span and timing, writes
// the frame durably and registers it, reporting whether it folded
// anything. The in-memory registration (and the ckptGen bump that
// invalidates ETags) happens only after atomicWrite returns — the
// durability-before-visibility ordering the crash drill pins.
func (s *Store) tierFoldOnce(ctx context.Context, level tier.Level) (did bool, err error) {
	cand := s.foldCandidates(level)
	metas := make([]tier.Meta, len(cand))
	for i, fm := range cand {
		metas[i] = fm.Meta
	}
	runs := tier.CloseRuns(level, metas)
	if len(runs) == 0 {
		return false, nil
	}
	lo, hi := runs[0][0], runs[0][1]

	s.mu.Lock()
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	_, sp := obs.StartSpan(ctx, "store.tier_fold")
	sp.Set(obs.Str("level", level.String()),
		obs.Int("frame_seq", int64(seq)),
		obs.Int("inputs", int64(hi-lo)))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	t0 := time.Now()

	var f *tier.Frame
	if level == tier.LevelDay {
		var states []*streaming.Stored
		if err = s.sources(cand, lo, hi, false, func(v frameValue) { states = append(states, v.(*streaming.Stored)) }); err == nil {
			f, err = tier.FoldStates(level, seq, s.cfg, metas[lo:hi], states)
		}
	} else {
		b := tier.NewBuilder(level.Resolution(), s.cfg.Origin)
		if err = s.sources(cand, lo, hi, false, func(v frameValue) { b.AddFrame(v.(*tier.Frame)) }); err == nil {
			f, err = b.Fold(seq, metas[lo:hi])
		}
	}
	if err != nil {
		return false, err
	}
	fm := frameMeta{Meta: f.Meta(), path: framePath(s.dir, level, seq)}
	if err := atomicWrite(fm.path, tier.EncodeFrame(f)); err != nil {
		return false, err
	}

	s.mu.Lock()
	s.levels[level] = append(s.levels[level], fm)
	s.tierFolds[level]++
	s.ckptGen++
	s.mu.Unlock()
	s.frameCache.put(frameKey(f.Seq), f)
	s.om.tierFoldSeconds.ObserveSince(t0)
	s.opts.Events.Record("tier_fold", "lower-level frames folded into a durable tier frame",
		obs.Str("level", level.String()),
		obs.Int("frame_seq", int64(seq)),
		obs.Int("inputs", int64(hi-lo)))
	return true, nil
}
