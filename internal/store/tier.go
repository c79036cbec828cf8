package store

// The store's long-horizon tier layer: fold scheduling and tier frame
// persistence (see internal/tier for the subsystem itself, query.go for
// the one query path that reads the frames). Tier frames are additive,
// derived data — a fold writes `tier-d-…`/`tier-w-…` files next to the
// WAL and checkpoints, never deletes its inputs, and registers the frame
// in memory only after the file is durable. Crash anywhere leaves either
// no tier frame (the fold simply re-runs at the next checkpoint: its
// candidates are recomputed from what is on disk) or a complete one; raw
// frames remain the source of truth for hour-resolution answers either
// way.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// tierTag is the level's file-name tag.
func tierTag(l tier.Level) string {
	if l == tier.LevelWeek {
		return "w"
	}
	return "d"
}

func tierPath(dir string, l tier.Level, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("tier-%s-%016d.tf", tierTag(l), seq))
}

// tierCovered reports the level's WAL coverage horizon: the highest
// covered segment of any frame at the level (folds run oldest-first, so
// coverage is a prefix of the WAL). list is sorted by BaseSeg.
func tierCovered(list []tier.FrameMeta) uint64 {
	if len(list) == 0 {
		return 0
	}
	return list[len(list)-1].CoveredSeg
}

// readTierFrame reads and decodes the file of tier frame (level, seq) and
// holds it to that identity. A missing file surfaces as os.ErrNotExist.
func (s *Store) readTierFrame(level tier.Level, seq uint64) (*tier.Frame, error) {
	path := tierPath(s.dir, level, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: tier frame %s: %w", filepath.Base(path), err)
	}
	f, err := tier.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("store: tier frame %s: %w", filepath.Base(path), err)
	}
	if f.Seq != seq || f.Level != level {
		return nil, fmt.Errorf("store: tier frame %s carries seq %d level %s", filepath.Base(path), f.Seq, f.Level)
	}
	return f, nil
}

// loadTierFrames decodes the tier files scanDir found (by level and seq),
// sweeps same-level frames whose WAL interval another frame contains (the
// refold-crash case, mirroring the checkpoint containment sweep), and
// registers the survivors sorted by BaseSeg. Decoded frames seed the
// query cache — the whole point of tiers is that this set stays small (a
// simulated year is ~370 day frames plus ~52 week frames).
func (s *Store) loadTierFrames(found []tier.FrameMeta) error {
	frames := make([]*tier.Frame, len(found))
	for i, m := range found {
		f, err := s.readTierFrame(m.Level, m.Seq)
		if err != nil {
			return err
		}
		found[i], frames[i] = f.Meta(), f
	}
	// Only a frame of the same level supersedes: a week frame contains
	// its day frames' intervals by construction.
	byLevel := map[tier.Level][]walSpan{}
	for _, m := range found {
		byLevel[m.Level] = append(byLevel[m.Level], walSpan{m.Seq, m.BaseSeg, m.CoveredSeg})
	}
	live := make([]tier.FrameMeta, 0, len(found))
	for i, o := range found {
		if (walSpan{o.Seq, o.BaseSeg, o.CoveredSeg}).obsoleteAmong(byLevel[o.Level]) {
			if !s.opts.ReadOnly {
				_ = os.Remove(tierPath(s.dir, o.Level, o.Seq))
			}
			continue
		}
		s.frameCache.put(frameKey(o.Seq), frames[i])
		live = append(live, o)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].BaseSeg < live[j].BaseSeg })
	for _, m := range live {
		switch m.Level {
		case tier.LevelDay:
			s.tierDay = append(s.tierDay, m)
		case tier.LevelWeek:
			s.tierWeek = append(s.tierWeek, m)
		}
	}
	return nil
}

// loadTierFrame returns the decoded frame for a registered meta, from
// the frame cache or disk. Tier files are never removed while registered,
// so no retry loop is needed.
func (s *Store) loadTierFrame(m tier.FrameMeta) (*tier.Frame, error) {
	if f, ok := s.frameCache.get(frameKey(m.Seq)).(*tier.Frame); ok {
		return f, nil
	}
	f, err := s.readTierFrame(m.Level, m.Seq)
	if err != nil {
		return nil, err
	}
	s.frameCache.put(frameKey(f.Seq), f)
	return f, nil
}

// tierFold runs the fold scheduler after a checkpoint (caller holds
// ckptMu): every closed day run of checkpoint frames folds into a day
// frame, then every closed week of day frames folds into a week frame.
// One run per iteration, so a long backlog (first enable on an old
// store) folds incrementally but completely.
func (s *Store) tierFold(ctx context.Context) error {
	if !s.opts.Tier {
		return nil
	}
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

// tierFoldCandidates snapshots, under mu, the frames beyond the level's
// coverage horizon that could fold into it: day frames for a week, raw
// checkpoint frames (returned beside their metadata, for their states) for
// a day. No raw candidates stall the day fold safely: if a compaction from
// before tiering was enabled left a frame straddling the horizon, folding
// would double-count its WAL slice, so nothing folds until the (guarded)
// compactor can no longer produce one.
func (s *Store) tierFoldCandidates(level tier.Level) (cand []tier.Meta, raw []frameMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level == tier.LevelWeek {
		covered := tierCovered(s.tierWeek)
		for _, m := range s.tierDay {
			if m.BaseSeg >= covered {
				cand = append(cand, m)
			}
		}
		return cand, nil
	}
	covered := tierCovered(s.tierDay)
	for _, fr := range s.frames {
		if fr.BaseSeg >= covered {
			raw = append(raw, fr)
			cand = append(cand, tier.Meta{Seq: fr.Seq, BaseSeg: fr.BaseSeg, CoveredSeg: fr.CoveredSeg, MinHour: fr.MinHour, MaxHour: fr.MaxHour})
		} else if fr.CoveredSeg > covered {
			return nil, nil // straddler: stall
		}
	}
	return cand, raw
}

// tierFoldOnce folds the level's oldest closed run — raw checkpoint
// frames, straight from the decoded-frame cache, into a day frame; day
// frames into a week frame — under its own tracing span and timing, writes
// the frame durably and registers it, reporting whether it folded
// anything. The in-memory registration (and the ckptGen bump that
// invalidates ETags) happens only after atomicWrite returns — the
// durability-before-visibility ordering the crash drill pins.
func (s *Store) tierFoldOnce(ctx context.Context, level tier.Level) (did bool, err error) {
	cand, raw := s.tierFoldCandidates(level)
	runs := tier.CloseRuns(level, cand)
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
	if level == tier.LevelWeek {
		b := tier.NewBuilder(level.Resolution(), s.cfg.Origin)
		if err = s.tierSources(cand, lo, hi, false, b.AddFrame); err == nil {
			f, err = b.Fold(seq, cand[lo:hi])
		}
	} else {
		var states []*streaming.Stored
		if err = s.rawSources(raw, lo, hi, false, func(st *streaming.Stored) { states = append(states, st) }); err == nil {
			f, err = tier.FoldStates(level, seq, s.cfg, cand[lo:hi], states)
		}
	}
	if err != nil {
		return false, err
	}
	if err := atomicWrite(tierPath(s.dir, level, seq), tier.EncodeFrame(f)); err != nil {
		return false, err
	}

	s.mu.Lock()
	if level == tier.LevelWeek {
		s.tierWeek = append(s.tierWeek, f.Meta())
		s.tierFoldsWeek++
	} else {
		s.tierDay = append(s.tierDay, f.Meta())
		s.tierFoldsDay++
	}
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
