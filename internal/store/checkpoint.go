package store

// The frame hierarchy: loading every level's frames at Open, folding the
// tail into a new checkpoint frame (Checkpoint), and past MaxFrames the
// oldest frames into one until MaxFrames/2 are left. A checkpoint frame is
// one internal/wire record — its metadata head plus the marshaled state of
// the WAL interval it folded — written atomically before the WAL it covers
// is dropped; a tier frame is internal/tier's codec (see tier.go).

import (
	"context"
	"errors"
	"os"
	"slices"
	"sort"
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/tier"
	"cwatrace/internal/wire"
)

// frameMeta is one registered frame of any level (the decoded state lives
// in the frame cache, or on disk until a read loads it). Its WAL interval
// is (BaseSeg, CoveredSeg]: recovery orders a level by BaseSeg, replays
// only segments past the checkpoints' highest CoveredSeg, and drops a
// frame whose interval another of its level contains. CoveredOff (the
// final size of segment CoveredSeg) and Records (the census total) are the
// checkpoint header fields compaction carries forward, zero above level 0.
// The file's path is kept so a cold read builds none.
type frameMeta struct {
	tier.Meta
	CoveredOff int64
	Records    uint64
	path       string
}

// obsoleteAmong is the crash-recovery containment rule. A compaction or
// a tier refold writes the merged frame before removing its inputs; a
// crash in between leaves frames whose interval is contained in the
// merged one. Containment with a higher Seq wins.
func (o frameMeta) obsoleteAmong(frames []frameMeta) bool {
	for _, n := range frames {
		if n.BaseSeg <= o.BaseSeg && o.CoveredSeg <= n.CoveredSeg && n.Seq > o.Seq {
			return true
		}
	}
	return false
}

// loadFrames reads every frame file once, sweeps within each level the
// frames another one contains (only a frame of the same level supersedes:
// a week frame contains its day frames' intervals by construction), and
// registers and caches the survivors of each level in WAL order. It
// returns the highest segment a checkpoint frame covers. A checkpoint
// frame that does not read fails the open; a tier frame is derived data,
// and one that does not read drops its level and those above (which a
// writable open removes, to be folded again): frames of a level left
// past a lowered horizon could straddle it.
func (s *Store) loadFrames(found []frameMeta) (uint64, error) {
	// The decoded values ride along until the sweep decides which ones
	// stay (recovery is the latency-critical path, re-reading every file
	// would double its I/O).
	vals := make(map[uint64]frameValue, len(found))
	var byLevel [len(frameNames)][]frameMeta
	damaged := tier.Level(len(frameNames)) // the lowest level with a frame that does not read
	for _, fm := range found {
		got, v, err := s.readFrame(fm)
		if err != nil {
			if fm.Level == tier.LevelCheckpoint {
				return 0, err
			}
			damaged = min(damaged, fm.Level)
			s.opts.Events.Record("tier_frame_unreadable", "its level and those above are dropped", obs.Str("error", err.Error()))
			continue
		}
		vals[got.Seq] = v
		byLevel[got.Level] = append(byLevel[got.Level], got)
	}
	for _, fm := range found {
		if fm.Level >= damaged && !s.opts.ReadOnly {
			_ = os.Remove(fm.path)
		}
	}
	for level, list := range byLevel[:damaged] {
		for _, fm := range list {
			if fm.obsoleteAmong(list) {
				if !s.opts.ReadOnly {
					_ = os.Remove(fm.path)
				}
				continue
			}
			s.levels[level] = append(s.levels[level], fm)
		}
		live := s.levels[level]
		sort.Slice(live, func(i, j int) bool { return live[i].BaseSeg < live[j].BaseSeg })
		for _, fm := range live {
			s.cacheFrame(frameKey(fm.Seq), vals[fm.Seq])
		}
	}

	var covered uint64
	for _, fm := range s.levels[tier.LevelCheckpoint] {
		s.frameRecords += fm.Records
		covered = max(covered, fm.CoveredSeg)
		if h := s.cfg.Origin.Add(time.Duration(fm.MaxHour) * time.Hour); fm.MaxHour >= 0 && h.After(s.watermark) {
			s.watermark = h
		}
		if st, err := os.Stat(fm.path); err == nil && st.ModTime().After(s.lastCheckpoint) {
			s.lastCheckpoint = st.ModTime()
		}
	}
	s.recoveredFrames = len(s.levels[tier.LevelCheckpoint])
	return covered, nil
}

// Checkpoint folds the tail shard into a durable checkpoint frame: it
// seals the active segment, writes the frame (atomically; the WAL is
// only deleted once the frame is on disk), registers it, deletes the
// folded segments, starts a fresh segment, folds closed days and weeks
// into tier frames and compacts past MaxFrames. With no new records since
// the last checkpoint it only refreshes the checkpoint clock.
//
// Only the seal and freezing the tail run under the append mutex; the
// expensive part — encoding megabytes of shard state, writing and
// fsyncing the frame, compaction — runs lock-free so a checkpoint never
// stalls the pipeline workers into dropping batches. Appends that land
// during the fold go to the fresh tail and the new active segment
// (beyond the covered position), so they are recovery-safe no matter
// how the fold ends.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// The whole fold is one background trace (compaction folds are its
	// children); the empty-tail clock refresh is traced too, but at
	// microseconds it only survives as the 1-in-N baseline.
	ctx, sp := s.opts.Tracer.StartTrace(context.Background(), "store.checkpoint", 0)
	err := s.checkpointLocked(ctx, sp)
	s.pruneFrameCache()
	sp.Fail(err)
	sp.End()
	return err
}

func (s *Store) checkpointLocked(ctx context.Context, sp *obs.Span) error {
	// Times the real fold only: the empty-tail clock refresh returns
	// before the observation and never skews the distribution.
	var t0 time.Time
	if s.om.checkpointSeconds != nil {
		t0 = time.Now()
	}

	// Phase 1, under mu: seal the WAL position, freeze the tail as the
	// frame's state and start a fresh one.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return errors.New("store: read-only")
	}
	if s.tailRecords == 0 {
		s.lastCheckpoint = time.Now()
		s.mu.Unlock()
		return nil
	}
	folded, err := s.wal.seal()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	coveredSeg := folded[len(folded)-1]
	minH, maxH := tailHours(s.tail)
	info := &frameMeta{
		Meta: tier.Meta{Seq: s.nextFrameSeq, BaseSeg: horizon(s.levels[tier.LevelCheckpoint]), CoveredSeg: coveredSeg.seq,
			MinHour: minH, MaxHour: maxH},
		CoveredOff: coveredSeg.size,
		Records:    s.tailRecords,
		path:       framePath(s.dir, tier.LevelCheckpoint, s.nextFrameSeq),
	}
	s.nextFrameSeq++
	if w := s.tail.Watermark(); w.After(s.watermark) {
		s.watermark = w
	}
	state := s.tail.Detach(time.Time{}, time.Time{})
	s.folding, s.foldingState = info, state
	s.tail, s.tailRecords = s.newTail(), 0
	s.mu.Unlock()

	// Phase 2, lock-free: encode the frozen state and write the frame. On
	// failure it folds back into the tail, so the in-memory state again
	// mirrors the un-covered WAL exactly (its segments were not deleted).
	restore := func(err error) error {
		s.mu.Lock()
		s.tail.MergeStored(state)
		s.tailRecords += info.Records
		s.folding, s.foldingState = nil, nil
		s.mu.Unlock()
		return err
	}
	blob, err := state.AppendBinary(nil, s.cfg.Origin)
	if err != nil {
		return restore(err)
	}
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, *info, blob))
	if err := atomicWrite(info.path, rec); err != nil {
		return restore(err)
	}

	// Phase 3, under mu: the frame is durable — commit, then fold the
	// covered WAL away (file removal itself needs no lock).
	s.mu.Lock()
	s.levels[tier.LevelCheckpoint] = append(s.levels[tier.LevelCheckpoint], *info)
	s.frameRecords += info.Records
	s.folding, s.foldingState = nil, nil
	s.wal.drop(folded)
	s.checkpoints++
	s.ckptGen++
	s.lastCheckpoint = time.Now()
	s.mu.Unlock()
	for _, seg := range folded {
		_ = os.Remove(seg.path)
	}
	s.opts.Events.Record("checkpoint_committed", "tail folded into a durable frame",
		obs.Int("frame_seq", int64(info.Seq)),
		obs.Int("records", int64(info.Records)),
		obs.Int("segments_folded", int64(len(folded))))
	sp.Set(obs.Int("frame_seq", int64(info.Seq)), obs.Int("records", int64(info.Records)))
	if s.om.checkpointSeconds != nil {
		s.om.checkpointSeconds.ObserveSince(t0)
	}
	// Tier folds first: a day that just closed moves the horizon before a
	// compaction could join its frames with the next day's.
	if err := s.tierFold(ctx); err != nil {
		return err
	}
	return s.compact(ctx)
}

// compact folds a run of the oldest frames into one once there are more
// than MaxFrames, as a child span of the checkpoint trace. The run leaves
// MaxFrames/2 frames: a store past the bound writes one compaction frame
// per MaxFrames/2+1 checkpoints, and one run takes MaxFrames+1 frames back
// under it. The merged frame is written under a fresh sequence before its
// inputs are removed, so a crash at any point leaves either the inputs or
// a containing merged frame — never a gap (Open's containment sweep
// deletes leftovers, however many). Caller holds ckptMu (the only writer
// of the frame lists); file I/O runs outside mu, queries retry a removal.
func (s *Store) compact(ctx context.Context) (err error) {
	s.mu.Lock()
	frames := s.levels[tier.LevelCheckpoint]
	if len(frames) <= s.opts.MaxFrames {
		s.mu.Unlock()
		return nil
	}
	// Straddle guard: never fold a run whose WAL interval crosses the
	// day-tier coverage horizon. A query separates tiered history from
	// the raw residual by a single segment floor; a frame spanning both
	// sides would be half double-counted, half missing from every
	// day/week answer. A run that starts below the horizon ends at it;
	// with fewer than two frames below, it starts at the first one past.
	dayCovered := horizon(s.levels[tier.LevelDay])
	lo, hi, below := 0, len(frames)-max(s.opts.MaxFrames/2, 1)+1, 0
	for below < len(frames) && frames[below].CoveredSeg <= dayCovered {
		below++
	}
	if below >= 2 {
		hi = min(hi, below)
	} else {
		for lo < len(frames) && frames[lo].BaseSeg < dayCovered {
			lo++
		}
		hi = min(hi+lo, len(frames))
	}
	if hi-lo < 2 {
		s.mu.Unlock()
		return nil
	}
	run := frames[lo:hi] // the caller holds ckptMu: nothing rewrites frames meanwhile
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	last := run[len(run)-1]
	info := frameMeta{
		Meta:       tier.Meta{Seq: seq, BaseSeg: run[0].BaseSeg, CoveredSeg: last.CoveredSeg, MinHour: -1, MaxHour: -1},
		CoveredOff: last.CoveredOff,
		path:       framePath(s.dir, tier.LevelCheckpoint, seq),
	}
	for _, fm := range run {
		info.Records += fm.Records
		info.MinHour = mergeBound(info.MinHour, fm.MinHour, false)
		info.MaxHour = mergeBound(info.MaxHour, fm.MaxHour, true)
	}
	_, sp := obs.StartSpan(ctx, "store.compact")
	sp.Set(obs.Int("frame_seq", int64(seq)), obs.Int("inputs", int64(len(run))),
		obs.Int("records", int64(info.Records)))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	st, err := s.mergeFrames(run)
	if err != nil {
		return err
	}
	state, err := st.AppendBinary(nil, s.cfg.Origin)
	if err != nil {
		return err
	}
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, info, state))
	if err := atomicWrite(info.path, rec); err != nil {
		return err
	}

	s.mu.Lock()
	// A fresh list: a query may still walk the one it took under mu.
	s.levels[tier.LevelCheckpoint] = slices.Concat(frames[:lo], []frameMeta{info}, frames[hi:])
	s.compacted++
	s.ckptGen++
	s.mu.Unlock()
	// The inputs' entries and the runs holding them go with the sweep
	// that ends every Checkpoint.
	s.cacheFrame(frameKey(seq), st)
	for _, fm := range run {
		_ = os.Remove(fm.path)
	}
	return nil
}

// mergeBound combines two possibly-absent (-1) hour bounds.
func mergeBound(a, b int64, max bool) int64 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if max == (a > b) {
		return a
	}
	return b
}
