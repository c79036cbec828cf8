package store

// The store's long-horizon tier layer: fold scheduling, tier frame
// persistence and the span-aware query path (see internal/tier for the
// subsystem itself). Tier frames are additive, derived data — a fold
// writes `tier-d-…`/`tier-w-…` files next to the WAL and checkpoints,
// never deletes its inputs, and registers the frame in memory only
// after the file is durable. Crash anywhere leaves either no tier frame
// (the fold simply re-runs at the next checkpoint: its candidates are
// recomputed from what is on disk) or a complete one; raw frames remain
// the source of truth for hour-resolution answers either way.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// tierFrameMeta is one live tier frame (metadata plus path; decoded
// frames are cached — they are immutable once written).
type tierFrameMeta struct {
	tier.FrameMeta
	path string
}

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
func tierCovered(list []tierFrameMeta) uint64 {
	if len(list) == 0 {
		return 0
	}
	return list[len(list)-1].CoveredSeg
}

// loadTierFrames decodes the tier files scanDir found, sweeps same-level
// frames whose WAL interval another frame contains (the refold-crash
// case, mirroring the checkpoint containment sweep), and registers the
// survivors sorted by BaseSeg. Decoded frames seed the query cache —
// the whole point of tiers is that this set stays small (a simulated
// year is ~370 day frames plus ~52 week frames).
func (s *Store) loadTierFrames(found []tierFrameMeta) error {
	frames := make([]*tier.Frame, len(found))
	for i := range found {
		data, err := os.ReadFile(found[i].path)
		if err != nil {
			return fmt.Errorf("store: tier frame %s: %w", filepath.Base(found[i].path), err)
		}
		f, err := tier.DecodeFrame(data)
		if err != nil {
			return fmt.Errorf("store: tier frame %s: %w", filepath.Base(found[i].path), err)
		}
		if f.Seq != found[i].Seq || f.Level != found[i].Level {
			return fmt.Errorf("store: tier frame %s carries seq %d level %s", filepath.Base(found[i].path), f.Seq, f.Level)
		}
		found[i].FrameMeta = f.Meta()
		frames[i] = f
	}
	live := make([]tierFrameMeta, 0, len(found))
	for i := range found {
		obsolete := false
		for j := range found {
			o, n := found[i].FrameMeta, found[j].FrameMeta
			if i != j && o.Level == n.Level && n.BaseSeg <= o.BaseSeg && o.CoveredSeg <= n.CoveredSeg && n.Seq > o.Seq {
				obsolete = true
				break
			}
		}
		if obsolete {
			if !s.opts.ReadOnly {
				_ = os.Remove(found[i].path)
			}
			continue
		}
		s.cacheTierFrame(frames[i])
		live = append(live, found[i])
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
// the cache or disk. Tier files are never removed while registered, so
// no retry loop is needed.
func (s *Store) loadTierFrame(m tierFrameMeta) (*tier.Frame, error) {
	if v, ok := s.tierCache.Load(m.Seq); ok {
		return v.(*tier.Frame), nil
	}
	data, err := os.ReadFile(m.path)
	if err != nil {
		return nil, err
	}
	f, err := tier.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("store: tier frame %s: %w", filepath.Base(m.path), err)
	}
	if f.Seq != m.Seq || f.Level != m.Level {
		return nil, fmt.Errorf("store: tier frame %s carries seq %d level %s", filepath.Base(m.path), f.Seq, f.Level)
	}
	s.cacheTierFrame(f)
	return f, nil
}

// cacheTierFrame publishes a decoded or freshly folded frame to the
// query cache. Nothing else holds f yet, which is what lets its district
// rows be resolved to dense indexes here, once, without a lock on f.
func (s *Store) cacheTierFrame(f *tier.Frame) {
	s.districts.Resolve(f)
	s.tierCache.Store(f.Seq, f)
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
	for {
		did, err := s.tierFoldDayOnce(ctx)
		if err != nil {
			return err
		}
		if !did {
			break
		}
	}
	for {
		did, err := s.tierFoldWeekOnce(ctx)
		if err != nil {
			return err
		}
		if !did {
			break
		}
	}
	return nil
}

// tierFoldCandidates snapshots, under mu, the raw frames beyond the day
// coverage horizon. A nil return stalls the fold safely: if a
// compaction from before tiering was enabled left a frame straddling
// the horizon, folding would double-count its WAL slice, so nothing
// folds until the (guarded) compactor can no longer produce one.
func (s *Store) tierFoldCandidates() ([]frameMeta, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := tierCovered(s.tierDay)
	var cand []frameMeta
	for _, fr := range s.frames {
		if fr.BaseSeg >= covered {
			cand = append(cand, fr)
		} else if fr.CoveredSeg > covered {
			return nil, covered // straddler: stall
		}
	}
	return cand, covered
}

// tierFoldDayOnce folds the oldest closed day run of raw checkpoint
// frames, reporting whether it folded anything.
func (s *Store) tierFoldDayOnce(ctx context.Context) (bool, error) {
	cand, _ := s.tierFoldCandidates()
	metas := make([]tier.Meta, len(cand))
	for i, fr := range cand {
		metas[i] = tier.Meta{Seq: fr.Seq, BaseSeg: fr.BaseSeg, CoveredSeg: fr.CoveredSeg, MinHour: fr.MinHour, MaxHour: fr.MaxHour}
	}
	runs := tier.CloseRuns(tier.LevelDay, metas)
	if len(runs) == 0 {
		return false, nil
	}
	run := cand[runs[0][0]:runs[0][1]]

	s.mu.Lock()
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	err := s.tierFoldSpan(ctx, tier.LevelDay, seq, len(run), func() (*tier.Frame, error) {
		inputs := make([]tier.Input, 0, len(run))
		for _, fm := range run {
			st, err := s.frameState(fm)
			if err != nil {
				return nil, fmt.Errorf("store: tier fold input %s: %w", filepath.Base(fm.path), err)
			}
			// FoldRaw takes shards; an archive one holds whatever window
			// the frame was persisted at.
			a := s.newTail()
			a.MergeStored(st)
			inputs = append(inputs, tier.Input{
				Meta:  tier.Meta{Seq: fm.Seq, BaseSeg: fm.BaseSeg, CoveredSeg: fm.CoveredSeg, MinHour: fm.MinHour, MaxHour: fm.MaxHour},
				State: a,
			})
		}
		return tier.FoldRaw(tier.LevelDay, seq, s.cfg, inputs)
	})
	return err == nil, err
}

// tierFoldWeekOnce folds the oldest closed week run of day frames.
func (s *Store) tierFoldWeekOnce(ctx context.Context) (bool, error) {
	s.mu.Lock()
	covered := tierCovered(s.tierWeek)
	var cand []tierFrameMeta
	for _, m := range s.tierDay {
		if m.BaseSeg >= covered {
			cand = append(cand, m)
		}
	}
	s.mu.Unlock()
	metas := make([]tier.Meta, len(cand))
	for i, m := range cand {
		metas[i] = tier.Meta{Seq: m.Seq, BaseSeg: m.BaseSeg, CoveredSeg: m.CoveredSeg, MinHour: m.MinHour, MaxHour: m.MaxHour}
	}
	runs := tier.CloseRuns(tier.LevelWeek, metas)
	if len(runs) == 0 {
		return false, nil
	}
	run := cand[runs[0][0]:runs[0][1]]

	s.mu.Lock()
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	err := s.tierFoldSpan(ctx, tier.LevelWeek, seq, len(run), func() (*tier.Frame, error) {
		days := make([]*tier.Frame, 0, len(run))
		for _, m := range run {
			f, err := s.loadTierFrame(m)
			if err != nil {
				return nil, err
			}
			days = append(days, f)
		}
		return tier.FoldFrames(tier.LevelWeek, seq, days)
	})
	return err == nil, err
}

// tierFoldSpan wraps one fold in its tracing span and timing, writes
// the frame durably, and registers it. The in-memory registration (and
// the ckptGen bump that invalidates ETags) happens only after
// atomicWrite returns — the durability-before-visibility ordering the
// crash drill pins.
func (s *Store) tierFoldSpan(ctx context.Context, level tier.Level, seq uint64, inputs int, fold func() (*tier.Frame, error)) (err error) {
	_, sp := obs.StartSpan(ctx, "store.tier_fold")
	sp.Set(obs.Str("level", level.String()),
		obs.Int("frame_seq", int64(seq)),
		obs.Int("inputs", int64(inputs)))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	t0 := time.Now()

	f, err := fold()
	if err != nil {
		return err
	}
	path := tierPath(s.dir, level, seq)
	if err := atomicWrite(path, tier.EncodeFrame(f)); err != nil {
		return err
	}

	s.mu.Lock()
	m := tierFrameMeta{FrameMeta: f.Meta(), path: path}
	switch level {
	case tier.LevelDay:
		s.tierDay = append(s.tierDay, m)
		s.tierFoldsDay++
	case tier.LevelWeek:
		s.tierWeek = append(s.tierWeek, m)
		s.tierFoldsWeek++
	}
	s.ckptGen++
	s.mu.Unlock()
	s.cacheTierFrame(f)
	s.om.tierFoldSeconds.ObserveSince(t0)
	s.opts.Events.Record("tier_fold", "lower-level frames folded into a durable tier frame",
		obs.Str("level", level.String()),
		obs.Int("frame_seq", int64(seq)),
		obs.Int("inputs", int64(inputs)))
	return nil
}

// QueryResolution answers a range query at the requested resolution.
// Hour (and the empty string) is the exact raw path — byte-identical to
// Query. Day and week run the span-aware planner: the coarsest tier
// frames covering the range, the raw residual beyond tier coverage
// stitched exactly on top, and the result carried in the LongHorizon
// block (the Snapshot field then holds only the exact residual tail).
// Auto resolves from the span against the store's history bounds.
func (s *Store) QueryResolution(from, to time.Time, res tier.Resolution) (*QueryResult, error) {
	if res == tier.ResolutionAuto {
		start, end := s.historyBounds()
		res = tier.AutoSpan(from, to, start, end)
	}
	if res == "" || res == tier.ResolutionHour {
		return s.Query(from, to)
	}
	for attempt := 0; ; attempt++ {
		r, err := s.tryQueryTier(from, to, res)
		if err == nil || attempt >= 2 || !errors.Is(err, os.ErrNotExist) {
			return r, err
		}
	}
}

// historyBounds reports the wall-clock extent of everything the store
// holds (frames plus live tail), for auto-resolution.
func (s *Store) historyBounds() (start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := int64(-1), int64(-1)
	cover := func(mn, mx int64) {
		if mn < 0 {
			return
		}
		if lo < 0 || mn < lo {
			lo = mn
		}
		if mx > hi {
			hi = mx
		}
	}
	for _, fr := range s.frames {
		cover(fr.MinHour, fr.MaxHour)
	}
	for _, t := range []*streaming.Analytics{s.foldingTail, s.tail} {
		if t != nil {
			if mn, mx, ok := t.Bounds(); ok {
				cover(int64(mn), int64(mx))
			}
		}
	}
	if lo < 0 {
		return time.Time{}, time.Time{}
	}
	return s.cfg.Origin.Add(time.Duration(lo) * time.Hour),
		s.cfg.Origin.Add(time.Duration(hi+1) * time.Hour)
}

func (s *Store) tryQueryTier(from, to time.Time, res tier.Resolution) (*QueryResult, error) {
	// Under mu, which ingest appends wait on, only what has to be one
	// consistent cut: the live state and the three frame lists — their
	// headers suffice, the lists are appended to or replaced whole, never
	// written in place. Planning and selection run on the cut, unlocked.
	s.mu.Lock()
	weeks, days, frames := s.tierWeek, s.tierDay, s.frames
	live := s.detachLive(from, to)
	version := s.versionLocked(from, to)
	s.mu.Unlock()

	plan := tier.BuildPlan(res, s.cfg.Origin, from, to, tierMetas(weeks), tierMetas(days))
	selected := make([]tierFrameMeta, 0, len(plan.Week)+len(plan.Day))
	selected = appendPlanned(selected, weeks, plan.Week)
	selected = appendPlanned(selected, days, plan.Day)
	b := tier.NewBuilder(res, s.cfg.Origin, s.districts)
	for _, tm := range selected {
		f, err := s.loadTierFrame(tm)
		if err != nil {
			return nil, err
		}
		b.AddFrame(f)
	}

	// The raw residual: frames beyond every selected tier's coverage,
	// plus the live state — the same selection and fold as the exact
	// path (see tryQuery).
	result := &QueryResult{From: from, To: to, Resolution: res, TailIncluded: live != nil, Version: version}
	m := streaming.NewRange(s.cfg, from, to)
	acc := tier.NewSketchAccum()
	for _, fr := range frames {
		if fr.BaseSeg < plan.RawFloor || !s.hoursOverlap(fr.MinHour, fr.MaxHour, from, to) {
			continue
		}
		st, err := s.frameState(fr)
		if err != nil {
			return nil, err
		}
		m.MergeStored(st)
		acc.AddShard(st.EachPrefix)
		result.Frames++
	}
	if live != nil {
		// To the presence sketch, which counts the shards a prefix appears
		// in, the live tails are one shard: a prefix both hold counts once.
		shard := streaming.NewRange(s.cfg, from, to)
		for _, st := range live {
			m.MergeStored(st)
			shard.MergeStored(st)
		}
		acc.AddShard(shard.EachPrefix)
	}
	// The residual series starts at its own first populated hour: the
	// hours before it are what the selected tier frames cover, and
	// rendering them would report zero traffic where the buckets report
	// some (and dominate a year-span answer with empty rows).
	result.Snapshot = m.SnapshotPopulated()
	b.AddResidual(result.Snapshot, acc, result.Frames)
	result.LongHorizon = b.Answer()
	result.LongHorizon.Label(s.cfg.Model)
	return result, nil
}

// tierMetas is the planner's view of a tier frame list.
func tierMetas(list []tierFrameMeta) []tier.FrameMeta {
	metas := make([]tier.FrameMeta, len(list))
	for i, m := range list {
		metas[i] = m.FrameMeta
	}
	return metas
}

// appendPlanned appends the frames of list a plan selected. BuildPlan
// emits seqs as a subsequence of the list it was given, in order, so one
// walk of both finds them all.
func appendPlanned(dst, list []tierFrameMeta, seqs []uint64) []tierFrameMeta {
	for _, m := range list {
		if len(seqs) == 0 {
			break
		}
		if m.Seq == seqs[0] {
			dst = append(dst, m)
			seqs = seqs[1:]
		}
	}
	return dst
}
