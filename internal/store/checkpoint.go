package store

// Checkpoint frames: loading them at Open, folding the tail into a new
// one (Checkpoint), and compacting old ones past MaxFrames. A frame is
// one internal/wire record — metadata (frameInfo) plus the marshaled
// streaming state of the WAL interval it folded — written atomically
// before the WAL it covers is dropped.

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
	"cwatrace/internal/wire"
)

// frameMeta is one live checkpoint frame (metadata only; the decoded
// state lives in the frame cache, or on disk until a read loads it).
type frameMeta struct {
	frameInfo
	path string
}

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016d.ck", seq))
}

// walSpan is what recovery reads of a frame, checkpoint or tier, to tell
// whether a crash left it behind: its file identity and the WAL interval
// (BaseSeg, CoveredSeg] it folded.
type walSpan struct{ Seq, BaseSeg, CoveredSeg uint64 }

// obsoleteAmong is the crash-recovery containment rule. A compaction or
// a tier refold writes the merged frame before removing its inputs; a
// crash in between leaves frames whose interval is contained in the
// merged one. Containment with a higher Seq wins.
func (o walSpan) obsoleteAmong(frames []walSpan) bool {
	for _, n := range frames {
		if n.BaseSeg <= o.BaseSeg && o.CoveredSeg <= n.CoveredSeg && n.Seq > o.Seq {
			return true
		}
	}
	return false
}

// loadFrames reads every checkpoint frame, drops frames whose WAL
// interval is contained in another's (the half-done-compaction case),
// registers and caches the survivors in WAL order, and returns the highest
// covered segment.
func (s *Store) loadFrames(ckpts []frameMeta) (uint64, error) {
	// One read+decode per frame; the states ride along until the obsolete
	// sweep decides which ones merge (recovery is the latency-critical
	// path, re-reading every file would double its I/O).
	decoded := make([]*streaming.Stored, len(ckpts))
	for i := range ckpts {
		info, st, err := loadFrame(ckpts[i], s.cfg)
		if err != nil {
			return 0, fmt.Errorf("store: checkpoint %s: %w", filepath.Base(ckpts[i].path), err)
		}
		ckpts[i].frameInfo = info
		decoded[i] = st
	}

	type liveFrame struct {
		meta  frameMeta
		state *streaming.Stored
	}
	spans := make([]walSpan, len(ckpts))
	for i, c := range ckpts {
		spans[i] = walSpan{c.Seq, c.BaseSeg, c.CoveredSeg}
	}
	var live []liveFrame
	for i := range ckpts {
		if spans[i].obsoleteAmong(spans) {
			if !s.opts.ReadOnly {
				_ = os.Remove(ckpts[i].path)
			}
			continue
		}
		live = append(live, liveFrame{meta: ckpts[i], state: decoded[i]})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].meta.BaseSeg < live[j].meta.BaseSeg })

	var covered uint64
	for _, fr := range live {
		s.cacheState(frameKey(fr.meta.Seq), fr.state)
		s.frames = append(s.frames, fr.meta)
		s.frameRecords += fr.meta.Records
		if fr.meta.CoveredSeg > covered {
			covered = fr.meta.CoveredSeg
		}
		if h := s.cfg.Origin.Add(time.Duration(fr.meta.MaxHour) * time.Hour); fr.meta.MaxHour >= 0 && h.After(s.watermark) {
			s.watermark = h
		}
		if st, err := os.Stat(fr.meta.path); err == nil && st.ModTime().After(s.lastCheckpoint) {
			s.lastCheckpoint = st.ModTime()
		}
	}
	s.recoveredFrames = len(s.frames)
	return covered, nil
}

// Checkpoint folds the tail shard into a durable checkpoint frame: it
// seals the active segment, writes the frame (atomically; the WAL is
// only deleted once the frame is on disk), registers it, deletes the
// folded segments, starts a fresh segment
// and compacts old frames past the MaxFrames bound. With no new records
// since the last checkpoint it only refreshes the checkpoint clock.
//
// Only the seal and the state swap run under the append mutex; the
// expensive part — marshaling megabytes of shard state, writing and
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

	// Phase 1, under mu: seal the WAL position, swap the tail out.
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
	oldTail, oldCount := s.tail, s.tailRecords
	s.tail = s.newTail()
	s.tailRecords = 0
	s.foldingTail, s.foldingRecords = oldTail, oldCount
	var baseSeg uint64
	if n := len(s.frames); n > 0 {
		baseSeg = s.frames[n-1].CoveredSeg
	}
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	// Phase 2, lock-free: marshal the swapped-out tail and write the
	// frame. On failure the tail folds back in chronological order so
	// the in-memory state again mirrors the un-covered WAL exactly (its
	// segments were not deleted).
	restore := func(err error) error {
		s.mu.Lock()
		fresh := s.newTail()
		fresh.Merge(oldTail)
		fresh.Merge(s.tail)
		s.tail = fresh
		s.tailRecords += oldCount
		s.foldingTail, s.foldingRecords = nil, 0
		s.mu.Unlock()
		return err
	}
	state, err := oldTail.MarshalBinary()
	if err != nil {
		return restore(err)
	}
	info := frameInfo{
		Seq:        seq,
		BaseSeg:    baseSeg,
		CoveredSeg: coveredSeg.seq,
		CoveredOff: coveredSeg.size,
		MinHour:    -1,
		MaxHour:    -1,
		Records:    oldCount,
	}
	if minH, maxH, ok := oldTail.Bounds(); ok {
		info.MinHour, info.MaxHour = int64(minH), int64(maxH)
	}
	path := ckptPath(s.dir, info.Seq)
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, info, state))
	if err := atomicWrite(path, rec); err != nil {
		return restore(err)
	}

	// Phase 3, under mu: the frame is durable — commit, then fold the
	// covered WAL away (file removal itself needs no lock).
	s.mu.Lock()
	s.frames = append(s.frames, frameMeta{frameInfo: info, path: path})
	s.frameRecords += info.Records
	if w := oldTail.Watermark(); w.After(s.watermark) {
		s.watermark = w
	}
	s.foldingTail, s.foldingRecords = nil, 0
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
	if err := s.compact(ctx); err != nil {
		return err
	}
	return s.tierFold(ctx)
}

// compact folds the oldest adjacent frame pairs together until the
// frame count is back under MaxFrames. The merged frame is written
// under a fresh sequence before its inputs are removed, so a crash at
// any point leaves either the inputs or a containing merged frame —
// never a gap (Open's containment sweep deletes leftovers). Caller
// holds ckptMu (the only writer of s.frames); file I/O runs outside mu,
// with queries retrying if they race a removal.
func (s *Store) compact(ctx context.Context) error {
	for {
		done, err := s.compactOnce(ctx)
		if done || err != nil {
			return err
		}
	}
}

// compactOnce folds the single oldest adjacent frame pair, as its own
// child span under the checkpoint trace; done reports the frame count
// is back under the bound.
func (s *Store) compactOnce(ctx context.Context) (done bool, err error) {
	s.mu.Lock()
	if len(s.frames) <= s.opts.MaxFrames {
		s.mu.Unlock()
		return true, nil
	}
	// Straddle guard: never merge a pair whose combined WAL interval
	// crosses the day-tier coverage horizon. The tier planner separates
	// tiered history from the raw residual by a single segment floor;
	// a frame spanning both sides would be half double-counted, half
	// missing from every day/week answer. Skip to the first adjacent
	// pair clear of the horizon (at most one pair straddles it).
	dayCovered := tierCovered(s.tierDay)
	idx := -1
	for i := 0; i+1 < len(s.frames); i++ {
		if s.frames[i].BaseSeg < dayCovered && dayCovered < s.frames[i+1].CoveredSeg {
			continue
		}
		idx = i
		break
	}
	if idx < 0 {
		s.mu.Unlock()
		return true, nil
	}
	f0, f1 := s.frames[idx], s.frames[idx+1]
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()
	_, sp := obs.StartSpan(ctx, "store.compact")
	sp.Set(obs.Int("frame_seq", int64(seq)),
		obs.Int("records", int64(f0.Records+f1.Records)))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	st, err := s.mergeFrames([]frameMeta{f0, f1})
	if err != nil {
		return false, err
	}
	state, err := st.AppendBinary(nil, s.cfg.Origin)
	if err != nil {
		return false, err
	}
	info := frameInfo{
		Seq:        seq,
		BaseSeg:    f0.BaseSeg,
		CoveredSeg: f1.CoveredSeg,
		CoveredOff: f1.CoveredOff,
		MinHour:    mergeBound(f0.MinHour, f1.MinHour, false),
		MaxHour:    mergeBound(f0.MaxHour, f1.MaxHour, true),
		Records:    f0.Records + f1.Records,
	}
	path := ckptPath(s.dir, info.Seq)
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, info, state))
	if err := atomicWrite(path, rec); err != nil {
		return false, err
	}

	s.mu.Lock()
	merged := make([]frameMeta, 0, len(s.frames)-1)
	merged = append(merged, s.frames[:idx]...)
	merged = append(merged, frameMeta{frameInfo: info, path: path})
	merged = append(merged, s.frames[idx+2:]...)
	s.frames = merged
	s.compacted++
	s.ckptGen++
	s.mu.Unlock()
	// The pair's entries and the runs holding it go with the sweep that
	// ends every Checkpoint.
	s.cacheState(frameKey(seq), st)
	_ = os.Remove(f0.path)
	_ = os.Remove(f1.path)
	return false, nil
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
