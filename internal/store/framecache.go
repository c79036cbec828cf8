package store

// Reading frames: the one reader of every level's frame files, the runs a
// fold merges once, and the cache of both. A frame file never changes once
// atomicWrite has renamed it into place and its seq is never reused, so
// what was decoded or merged stays valid while its frames are registered —
// the cache needs no versioning, only pruning.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// frameCacheBudget bounds the frames and runs a store keeps, in bytes of
// decoded state (about three times the frame files). A year of hourly
// history at the paper's scale decodes to a few MB, so everything stays
// resident; a production /24 table is orders larger, and then the least
// recently read are decoded and merged per query as before. It is a
// constant rather than an option: no deployment in the repository needs a
// second value, and a store that outgrows it degrades to the uncached cost.
const frameCacheBudget = 64 << 20

// prefixTableCap bounds the store's prefix table (see pruneFrameCache): a
// million prefixes are about 100 MB of table and 4 MB of a fold's dense
// row array. A constant for the reason frameCacheBudget is one; tests lower
// a store's copy (Store.prefixCap).
const prefixTableCap = 1 << 20

// runKey names the frames of one list from seq first to seq last; a frame
// alone runs from itself to itself. Compaction is exact, so the frames
// between two registered ones sum to the same run however it regroups
// them (tier lists it never does): a kept run is never wrong, only unused.
type runKey struct{ first, last uint64 }

func frameKey(seq uint64) runKey { return runKey{seq, seq} }

// frameCache holds decoded frames and merged runs, least recently used
// out once the budget is exceeded. Its mutex is a leaf: nothing else is
// taken while it is held, and it is never held across a file read, a
// decode or a merge.
type frameCache struct {
	budget int64

	mu      sync.Mutex
	entries map[runKey]*frameCacheEntry
	bytes   int64
	clock   uint64 // ticks once per access; an entry's used is its last
	hits    uint64
	misses  uint64
}

// frameValue is a decoded frame or a run of frames merged: a checkpoint
// frame's state (*streaming.Stored) or a tier frame (*tier.Frame).
type frameValue interface{ Size() int }

// frameCacheEntry holds one frameValue.
type frameCacheEntry struct {
	val  frameValue
	size int64
	used uint64
}

func newFrameCache(budget int64) *frameCache {
	return &frameCache{budget: budget, entries: make(map[runKey]*frameCacheEntry)}
}

// get returns what is cached under k, or nil.
func (c *frameCache) get(k runKey) frameValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.clock++
	e.used = c.clock
	return e.val
}

// put caches v under k and evicts the least recently used entries past
// the budget. A value larger than the whole budget is not kept.
func (c *frameCache) put(k runKey, v frameValue) {
	size := int64(v.Size())
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok {
		c.bytes -= old.size
	}
	c.clock++
	c.entries[k] = &frameCacheEntry{val: v, size: size, used: c.clock}
	c.bytes += size
	for c.bytes > c.budget {
		// A scan per eviction: the entry count is bounded by the frames
		// and the runs over them (about one run per frame). The entry
		// just put is the most recently used, and fits alone.
		oldest := k
		for key, e := range c.entries {
			if e.used < c.entries[oldest].used {
				oldest = key
			}
		}
		c.bytes -= c.entries[oldest].size
		delete(c.entries, oldest)
	}
}

// retain drops every entry keep does not report current.
func (c *frameCache) retain(keep func(k runKey) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if !keep(k) {
			c.bytes -= e.size
			delete(c.entries, k)
		}
	}
}

// readFrame reads, validates and decodes the file of fm and holds it to
// fm's (level, seq), returning the metadata the file carries beside what
// it decodes to. A missing file surfaces as os.ErrNotExist, which is how
// queries notice that compaction retired the frame under them.
func (s *Store) readFrame(fm frameMeta) (frameMeta, frameValue, error) {
	data, err := os.ReadFile(fm.path)
	if err != nil {
		return frameMeta{}, nil, fmt.Errorf("store: frame %s: %w", filepath.Base(fm.path), err)
	}
	got, v, err := decodeFrame(fm.Level, data, s.cfg)
	if err == nil && (got.Seq != fm.Seq || got.Level != fm.Level) {
		err = fmt.Errorf("%w: file carries frame seq %d level %s", ErrCorrupt, got.Seq, got.Level)
	}
	if err != nil {
		return frameMeta{}, nil, fmt.Errorf("store: frame %s: %w", filepath.Base(fm.path), err)
	}
	got.path = fm.path
	return got, v, nil
}

// decodeFrame decodes the bytes of a frame file at level: a tier frame by
// internal/tier's codec, a checkpoint frame by the record CRC, type and
// length, its hour bounds and every bound of the state codec. The state is
// decoded at its own persisted window length (cfg's Origin must match):
// compacted frames are archives whose span — and therefore window — can
// exceed the live sliding window.
func decodeFrame(level tier.Level, data []byte, cfg streaming.Config) (frameMeta, frameValue, error) {
	if level != tier.LevelCheckpoint {
		f, err := tier.DecodeFrame(data)
		if err != nil {
			return frameMeta{}, nil, err
		}
		return frameMeta{Meta: f.Meta()}, f, nil
	}
	payload, n, err := readRecord(data, recTypeFrame)
	if err != nil {
		return frameMeta{}, nil, err
	}
	if n != len(data) {
		return frameMeta{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-n)
	}
	info, state, err := decodeFramePayload(payload)
	if err != nil {
		return frameMeta{}, nil, err
	}
	// Bound the metadata hour span before anything sizes a merge window
	// from it (tryQuery, compact): the record-layer CRC does not bound
	// allocations, so implausible bounds are corruption, not a request
	// for a multi-GB merge. Valid frames are either both -1 (accounting
	// only) or 0 <= MinHour <= MaxHour < the plausibility cap ingest
	// enforces.
	if (info.MinHour == -1) != (info.MaxHour == -1) ||
		info.MinHour < -1 || info.MaxHour < info.MinHour || info.MaxHour >= streaming.MaxWindowHours {
		return frameMeta{}, nil, fmt.Errorf("%w: frame hour bounds [%d, %d]", ErrCorrupt, info.MinHour, info.MaxHour)
	}
	st, err := streaming.DecodeStored(cfg, state)
	if err != nil {
		return frameMeta{}, nil, err
	}
	return info, st, nil
}

// frame returns the decoded frame of a registered fm: from the cache, or
// from its file, which then seeds the cache. Only a fully validated frame
// is ever cached; a damaged file is an error on every read.
func (s *Store) frame(fm frameMeta) (frameValue, error) {
	if v := s.frameCache.get(frameKey(fm.Seq)); v != nil {
		return v, nil
	}
	_, v, err := s.readFrame(fm)
	if err != nil {
		return nil, err
	}
	s.cacheFrame(frameKey(fm.Seq), v)
	return v, nil
}

// cacheFrame publishes a decoded frame or merged run to the frame cache.
// Nothing else holds v yet, which is what lets a checkpoint state be
// resolved against the store's prefix table here, once: every state a fold
// reads from the cache is added by id (a merged run comes resolved against
// it already). A tier frame holds no prefix rows.
func (s *Store) cacheFrame(k runKey, v frameValue) {
	if st, ok := v.(*streaming.Stored); ok {
		s.prefixes.Load().Resolve(st)
	}
	s.frameCache.put(k, v)
}

// minRun is the fewest frames a run merges: a shorter aligned block is
// added frame by frame, as the one- and seven-day hour answers a
// dashboard polls add their few recent frames.
const minRun = 8

// cover hands each the aligned blocks that tile the selected frames of a
// list sorted by BaseSeg, as [lo, hi) positions. A block at level k is
// every frame whose BaseSeg agrees with the others' above the low k bits:
// aligned on the WAL chain, not on list positions, so a checkpoint changes
// only the newest blocks and a compaction those holding its inputs or next
// to its merged frame. Each block taken is the largest that starts where
// the last one ended and holds no unselected frame, so O(log n) blocks
// tile n selected frames.
func cover(n int, base func(i int) uint64, sel func(i int) bool, each func(lo, hi int) error) error {
	for lo := 0; lo < n; {
		if !sel(lo) {
			lo++
			continue
		}
		hi := lo + 1
		for k := 1; k < 64 && (lo == 0 || base(lo-1)>>k != base(lo)>>k); k++ {
			next := hi
			for next < n && base(next)>>k == base(lo)>>k && sel(next) {
				next++
			}
			if next < n && base(next)>>k == base(lo)>>k {
				break
			}
			hi = next
		}
		if err := each(lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// sources hands add what covers list[lo:hi], an aligned block of one
// level's frames: each frame alone, or, when runs are asked for and the
// block holds minRun frames or more, the merge of them all, kept.
func (s *Store) sources(list []frameMeta, lo, hi int, runs bool, add func(frameValue)) error {
	if !runs || hi-lo < minRun {
		for _, fm := range list[lo:hi] {
			v, err := s.frame(fm)
			if err != nil {
				return err
			}
			add(v)
		}
		return nil
	}
	key := runKey{list[lo].Seq, list[hi-1].Seq}
	v := s.frameCache.get(key)
	if v == nil {
		var err error
		if v, err = s.mergeRun(list[lo:hi]); err != nil {
			return err
		}
		s.cacheFrame(key, v)
	}
	add(v)
	return nil
}

// mergeRun merges a run of one level's frames into one: checkpoint states
// by mergeFrames, tier frames into a frame at their level by Builder.Run,
// resolved against the store's district table like every frame a query
// adds.
func (s *Store) mergeRun(run []frameMeta) (frameValue, error) {
	if level := run[0].Level; level != tier.LevelCheckpoint {
		b := tier.NewBuilder(level.Resolution(), s.cfg.Origin)
		if err := s.sources(run, 0, len(run), false, func(v frameValue) { b.AddFrame(v.(*tier.Frame)) }); err != nil {
			return nil, err
		}
		f, err := b.Run()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	st, err := s.mergeFrames(run)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// mergeFrames merges checkpoint frames' states by the read path's fold,
// kept whole (streaming.Merge): what a compaction writes and a run keeps.
// Its window spans the states' hours; DecodeStored adopts it.
func (s *Store) mergeFrames(frames []frameMeta) (*streaming.Stored, error) {
	states := make([]*streaming.Stored, 0, len(frames))
	err := s.sources(frames, 0, len(frames), false, func(v frameValue) { states = append(states, v.(*streaming.Stored)) })
	if err != nil {
		return nil, err
	}
	return streaming.Merge(s.cfg, states...), nil
}

// pruneFrameCache drops what no longer has both ends registered: a query
// reads its frame lists under mu and the frames outside it, so it can cache
// what compaction has just retired, and seqs are not reused. Every
// Checkpoint ends with this sweep; its caller holds ckptMu, so the
// registered lists cannot change between the snapshot and the sweep.
//
// It also bounds the prefix table, which only grows: past s.prefixCap ids
// the store starts a fresh one, gives the tail its ids in it and drops
// every checkpoint state and run of them, so what is read next is decoded
// and resolved again. Tier frames and their runs hold sketch registers,
// not prefix ids, and stay. (A state a query resolved against the old
// table just before may still be cached after; a fold interns its rows,
// see streaming.PrefixTable.IDs.)
func (s *Store) pruneFrameCache() {
	s.mu.Lock()
	fresh := s.prefixes.Load().Len() > s.prefixCap
	if fresh {
		t := streaming.NewPrefixTable()
		s.prefixes.Store(t)
		s.tail.Intern(t)
	}
	level := make(map[uint64]tier.Level)
	for l, list := range s.levels {
		for _, fm := range list {
			level[fm.Seq] = tier.Level(l)
		}
	}
	s.mu.Unlock()
	s.frameCache.retain(func(k runKey) bool {
		first, ok1 := level[k.first]
		_, ok2 := level[k.last]
		return ok1 && ok2 && !(fresh && first == tier.LevelCheckpoint)
	})
}
