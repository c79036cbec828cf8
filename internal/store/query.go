package store

// The historical time-range query engine, one path for every resolution
// (hour is the finest tier, see tryQuery). A query merges the checkpoint
// frames whose hour coverage overlaps the requested range (plus the live
// tail shard) into one snapshot, then trims the hourly series exactly to
// the range. The hourly Figure-2 series is therefore hour-exact at any
// range; the census, top-K prefix and district aggregates are not
// time-resolved inside a frame, so partial ranges report them at
// checkpoint-frame granularity (a full-range query is always exact).
// Because streaming aggregation is commutative, the result is
// independent of where checkpoints fell — the property the crash
// recovery test pins byte for byte.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"time"

	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// ParseTime parses a query bound the way every store consumer does
// (collectord's /api/v1/query params, cwanalyze's -from/-to flags): RFC
// 3339 or unix seconds, with the empty string meaning an open bound. Answers
// echo their bounds as RFC 3339, so unix seconds outside its years 0-9999
// are refused here, not at marshal time.
func ParseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		if t := time.Unix(secs, 0).UTC(); t.Year() >= 0 && t.Year() <= 9999 {
			return t, nil
		}
		return time.Time{}, fmt.Errorf("unix seconds %s fall outside years 0-9999", s)
	}
	return time.Time{}, fmt.Errorf("want RFC 3339 or unix seconds, got %q", s)
}

// QueryResult is one historical range query answer.
type QueryResult struct {
	// From/To echo the requested bounds (zero = open end).
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Frames is how many checkpoint frames were merged; TailIncluded
	// reports whether the live (un-checkpointed) tail contributed.
	Frames       int  `json:"frames"`
	TailIncluded bool `json:"tail_included"`
	// Resolution and LongHorizon are set by NewQueryResult for day- and
	// week-resolution answers (see internal/tier); both are empty on the
	// exact hourly path, keeping the v1 wire schema unchanged.
	Resolution  tier.Resolution `json:"resolution,omitempty"`
	LongHorizon *tier.Answer    `json:"long_horizon,omitempty"`
	// Version is Version(From, To) as of this answer's cut: read in the
	// hold of the store mutex that took the frame list and the live state,
	// so it names these bytes however many appends land meanwhile.
	Version uint64 `json:"-"`

	// fold is the merged exact part, unrendered: at hour resolution every
	// selected frame, at day/week resolution only the exact raw residual
	// (tiered history lives in LongHorizon; Frames then counts residual
	// frames only). A JSON body renders it, a shard answering a router
	// ships it as it is.
	fold *streaming.Range
	// tiered is the accumulator LongHorizon was rendered from.
	tiered *tier.Builder
}

// Snapshot renders the merged, hour-trimmed view of the range.
func (r *QueryResult) Snapshot() *streaming.Snapshot { return r.fold.Snapshot() }

// State is the state behind Snapshot, unrendered (streaming.Range.Stored),
// and the origin it is anchored at.
func (r *QueryResult) State() (*streaming.Stored, time.Time) {
	return r.fold.Stored(), r.fold.Origin()
}

// Frame is LongHorizon unrendered: the sums behind it as a tier frame, the
// form a shard ships them to a router in — no file identity, no hours, the
// answer's source counts beside it. Only a day or week answer has one.
func (r *QueryResult) Frame() (*tier.Frame, error) {
	return r.tiered.Frame(tier.Meta{MinHour: -1, MaxHour: -1}, 0)
}

// NewQueryResult is the answer over [from, to) that fold holds, with the
// long-horizon part lh when it has one (nil at hour resolution): a store's
// and a router's merge of its shards' alike. Then fold is the raw residual,
// whose series starts at its first populated hour: the hours before it are
// lh's buckets, and rendering them would report zero traffic where the
// buckets report some (and dominate a year-span answer with empty rows).
func NewQueryResult(from, to time.Time, fold *streaming.Range, lh *tier.Builder) *QueryResult {
	r := &QueryResult{From: from, To: to, fold: fold, tiered: lh}
	if lh != nil {
		fold.Populated()
		r.LongHorizon = lh.Answer(fold.Model())
		r.Resolution = r.LongHorizon.Resolution
	}
	return r
}

// QueryResolution answers a range query at the requested resolution.
// Hour (and the empty string) is the finest tier: no tier frames, every
// overlapping raw frame. Day and week walk the levels down from theirs,
// taking each level's frames past the coverage of the one above, and
// stitch the raw residual beyond tier coverage exactly on top; the tiered
// part is carried in the LongHorizon block (the Snapshot field then holds
// only the exact residual tail). Auto resolves from the span against the
// store's history bounds.
//
// Frames are read outside the store mutex — a historical query must
// never stall the hot Append path (a blocked worker means dropped
// batches upstream) — and from the decoded-frame cache when they were
// read before. Frame files are immutable once written, so the only
// hazard is a concurrent checkpoint's compaction removing one
// mid-query; that retries against the fresh (equivalent, merged)
// frame set.
func (s *Store) QueryResolution(from, to time.Time, res tier.Resolution) (*QueryResult, error) {
	if res == tier.ResolutionAuto {
		start, end := s.historyBounds()
		res = tier.AutoSpan(from, to, start, end)
	}
	return s.query(from, to, res, false)
}

// query is tryQuery on a fresh cut, retried when a compaction removed a
// frame of the cut before it was read.
func (s *Store) query(from, to time.Time, res tier.Resolution, window bool) (*QueryResult, error) {
	for attempt := 0; ; attempt++ {
		r, err := s.tryQuery(s.cut(from, to), from, to, res, window)
		if err == nil || attempt >= 2 || !errors.Is(err, os.ErrNotExist) {
			return r, err
		}
	}
}

// readCut is what a read takes under mu, which ingest appends wait on:
// the frame lists (appended to or replaced whole, never written in
// place), the detached live state and the Version naming them.
type readCut struct {
	levels  [len(frameNames)][]frameMeta
	live    []*streaming.Stored
	version uint64
}

func (s *Store) cut(from, to time.Time) readCut {
	s.mu.Lock()
	defer s.mu.Unlock()
	return readCut{s.levels, s.detachLive(from, to), s.versionLocked(from, to)}
}

// tryQuery answers from a cut; selection and the fold run unlocked. With
// window set it is the live view: the hour answer over all of history
// folded by streaming.FoldWindow, without query metadata.
//
// It walks from the resolution's level down to the checkpoint frames. Each
// level adds its frames past floor that overlap the range (frames holding
// only dropped-record accounting ride along with every query so the
// census stays complete), then raises floor to the level's horizon: weeks
// only at week resolution, days past week coverage, checkpoint frames past
// day coverage. Tier coverage is a prefix of the WAL, so one floor keeps
// every source a disjoint slice of it (the compaction guard keeps a
// checkpoint frame from straddling the floor). Each selected stretch of a
// list is tiled with aligned blocks (cover), and a block of minRun frames
// or more is added as one run — except a day or week answer's residual,
// which goes frame by frame: presence counts frames.
//
// The residual and the detached live state, in chronological order, fold
// into a streaming.Range: a historical range can span more hours than the
// live sliding window (that is the point of the store), so the target is
// sized by the hours the range shares with the selected frames, evicts
// nothing, and reports the window a ring widened to hold them all would
// have.
func (s *Store) tryQuery(c readCut, from, to time.Time, res tier.Resolution, window bool) (*QueryResult, error) {
	top := res.Level()
	var lh *tier.Builder
	var acc *tier.SketchAccum
	if top != tier.LevelCheckpoint {
		lh, acc = tier.NewBuilder(res, s.cfg.Origin), tier.NewSketchAccum()
	}
	live, n := c.live, 0
	states := make([]*streaming.Stored, 0, len(c.levels[tier.LevelCheckpoint])+len(live))
	add := func(v frameValue) {
		switch v := v.(type) {
		case *tier.Frame:
			lh.AddFrame(v)
		case *streaming.Stored:
			states = append(states, v)
			if acc != nil {
				acc.AddShard(v)
			}
		}
	}
	var floor uint64
	for level := int(top); level >= 0; level-- {
		list := c.levels[level]
		err := cover(len(list), func(i int) uint64 { return list[i].BaseSeg }, func(i int) bool {
			return list[i].BaseSeg >= floor && tier.HoursOverlap(s.cfg.Origin, list[i].MinHour, list[i].MaxHour, from, to)
		}, func(lo, hi int) error {
			if level == 0 {
				n += hi - lo
			}
			return s.sources(list, lo, hi, level > 0 || lh == nil, add)
		})
		if err != nil {
			return nil, err
		}
		floor = max(floor, horizon(list))
	}

	var result *QueryResult
	if window {
		result = NewQueryResult(from, to, streaming.FoldWindow(s.cfg, append(states, live...)...), nil)
	} else {
		fold := streaming.Fold(s.cfg, from, to, append(states, live...)...)
		if lh != nil {
			// To the presence sketch, which counts the shards a prefix
			// appears in, the live tails are one shard: a prefix both hold
			// counts once. The builder adds the fold's districts by index.
			acc.AddShard(live...)
			lh.AddResidual(fold, acc, n)
		}
		result = NewQueryResult(from, to, fold, lh)
		result.Frames, result.TailIncluded = n, live != nil
	}
	result.Version = c.version
	return result, nil
}

// historyBounds reports the wall-clock extent of everything the store
// holds (frames plus live tail), for auto-resolution.
func (s *Store) historyBounds() (start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := int64(-1), int64(-1)
	cover := func(mn, mx int64) { lo, hi = mergeBound(lo, mn, false), mergeBound(hi, mx, true) }
	for _, fr := range s.levels[tier.LevelCheckpoint] {
		cover(fr.MinHour, fr.MaxHour)
	}
	if s.folding != nil {
		cover(s.folding.MinHour, s.folding.MaxHour)
	}
	cover(tailHours(s.tail))
	if lo < 0 {
		return time.Time{}, time.Time{}
	}
	return s.cfg.Origin.Add(time.Duration(lo) * time.Hour),
		s.cfg.Origin.Add(time.Duration(hi+1) * time.Hour)
}

// detachLive is the live, un-checkpointed state for a query over
// [from, to): the state of any checkpoint fold in flight (chronologically
// between the frames and the tail), added as it is, and a copy of the
// tail. The two are one unit: if either overlaps the range, both are
// added, oldest first; nil means the live state contributes nothing.
// Caller holds mu, which ingest appends wait on — hence Detach, whose copy
// is sized by the range and not by what the tail has archived.
func (s *Store) detachLive(from, to time.Time) []*streaming.Stored {
	if !s.liveIncluded(from, to) {
		return nil
	}
	tail := s.tail.Detach(from, to)
	if s.foldingState == nil {
		return []*streaming.Stored{tail}
	}
	return []*streaming.Stored{s.foldingState, tail}
}

// liveIncluded is the one rule for whether the live state is part of a
// query over [from, to) (and so of its Version): the in-flight fold's
// frame overlaps the range as a frame would, or the tail holds records and
// could hold hours of the range — a tail without kept hours always could,
// its accounting must reach every query. Caller holds mu.
func (s *Store) liveIncluded(from, to time.Time) bool {
	if s.folding != nil && tier.HoursOverlap(s.cfg.Origin, s.folding.MinHour, s.folding.MaxHour, from, to) {
		return true
	}
	minH, maxH := tailHours(s.tail)
	return s.tailRecords > 0 && tier.HoursOverlap(s.cfg.Origin, minH, maxH, from, to)
}

// Version reports an opaque generation token for the data a
// Query(from, to) over the same bounds would serve; Version(zero, zero)
// covers the full history, i.e. what Snapshot serves. Two equal tokens
// from one process guarantee byte-identical query results, so the API
// layer derives conditional-GET ETags from it. The token mixes:
//
//   - a per-open boot nonce, so validators never survive a restart;
//   - the checkpoint generation, bumped whenever the frame set changes
//     (checkpoint commit, compaction) — the cache-invalidation-on-
//     checkpoint invariant;
//   - the tail generation (bumped per Append), but only when the live
//     tail could contribute to the range — a purely historical range is
//     served from immutable frames, so its token stays stable under
//     live ingest until the next checkpoint.
//
// The tail-overlap test is tryQuery's inclusion rule (liveIncluded): if
// ingest later grows the tail into a range that was frames-only, the
// tail generation enters the mix and the token changes with it.
//
// Every answer carries the token of its own cut: the query paths call
// versionLocked in the hold of mu that takes it.
func (s *Store) Version(from, to time.Time) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versionLocked(from, to)
}

// versionLocked computes the Version token. Caller holds mu.
func (s *Store) versionLocked(from, to time.Time) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{s.boot, s.ckptGen} {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if s.liveIncluded(from, to) {
		binary.BigEndian.PutUint64(buf[:], s.tailGen)
		h.Write(buf[:])
	}
	return h.Sum64()
}
