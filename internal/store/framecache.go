package store

// Reading frames: the one checkpoint-frame loader, the runs a fold merges
// once, and the cache of both. A frame file never changes once atomicWrite
// has renamed it into place and its seq is never reused, so what was
// decoded or merged stays valid while its frames are registered — the
// cache needs no versioning, only pruning.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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

// frameCacheEntry holds a checkpoint frame's state or a run of them merged
// (*streaming.Stored), or a tier frame or a run of them (*tier.Frame).
type frameCacheEntry struct {
	val  interface{ Size() int }
	size int64
	used uint64
}

func newFrameCache(budget int64) *frameCache {
	return &frameCache{budget: budget, entries: make(map[runKey]*frameCacheEntry)}
}

// get returns what is cached under k, or nil.
func (c *frameCache) get(k runKey) any {
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
func (c *frameCache) put(k runKey, v interface{ Size() int }) {
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

// loadFrame reads, validates and decodes one checkpoint frame file: the
// record CRC, type and length, the frame's identity and hour bounds, and
// every bound of the state codec. The state is decoded at its own
// persisted window length (cfg's Origin must match): compacted frames
// are archives whose span — and therefore window — can exceed the live
// sliding window. A missing file surfaces as os.ErrNotExist, which is
// how queries notice that compaction retired the frame under them.
func loadFrame(fm frameMeta, cfg streaming.Config) (frameInfo, *streaming.Stored, error) {
	data, err := os.ReadFile(fm.path)
	if err != nil {
		return frameInfo{}, nil, err
	}
	payload, n, err := readRecord(data, recTypeFrame)
	if err != nil {
		return frameInfo{}, nil, err
	}
	if n != len(data) {
		return frameInfo{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-n)
	}
	info, state, err := decodeFramePayload(payload)
	if err != nil {
		return frameInfo{}, nil, err
	}
	if info.Seq != fm.Seq {
		return frameInfo{}, nil, fmt.Errorf("%w: file of frame %d carries frame seq %d", ErrCorrupt, fm.Seq, info.Seq)
	}
	// Bound the metadata hour span before anything sizes a merge window
	// from it (tryQuery, compact): the record-layer CRC does not bound
	// allocations, so implausible bounds are corruption, not a request
	// for a multi-GB merge. Valid frames are either both -1 (accounting
	// only) or 0 <= MinHour <= MaxHour < the plausibility cap ingest
	// enforces.
	if (info.MinHour == -1) != (info.MaxHour == -1) ||
		info.MinHour < -1 || info.MaxHour < info.MinHour || info.MaxHour >= streaming.MaxWindowHours {
		return frameInfo{}, nil, fmt.Errorf("%w: frame hour bounds [%d, %d]", ErrCorrupt, info.MinHour, info.MaxHour)
	}
	st, err := streaming.DecodeStored(cfg, state)
	if err != nil {
		return frameInfo{}, nil, err
	}
	return info, st, nil
}

// frameState returns the decoded state of a frame the caller found
// registered: from the cache, or from its file, which then seeds the
// cache. Only a fully validated frame is ever cached; a damaged file is
// an error on every read.
func (s *Store) frameState(fm frameMeta) (*streaming.Stored, error) {
	if st, ok := s.frameCache.get(frameKey(fm.Seq)).(*streaming.Stored); ok {
		return st, nil
	}
	_, st, err := loadFrame(fm, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("store: frame %s: %w", filepath.Base(fm.path), err)
	}
	s.cacheState(frameKey(fm.Seq), st)
	return st, nil
}

// cacheState publishes a decoded or merged state to the frame cache.
// Nothing else holds st yet, which is what lets it be resolved against the
// store's prefix table here, once: every state a fold reads from the cache
// is added by id.
func (s *Store) cacheState(k runKey, st *streaming.Stored) {
	s.prefixes.Load().Resolve(st)
	s.frameCache.put(k, st)
}

// minRun is the fewest frames a run merges: a shorter aligned block is
// added frame by frame, as the one- and seven-day hour answers a
// dashboard polls add their few recent frames.
const minRun = 8

// cover hands each the aligned blocks that tile the selected frames of a
// list sorted by BaseSeg, as [lo, hi) positions. A block at level k is
// every frame whose BaseSeg agrees with the others' above the low k bits:
// aligned on the WAL chain, not on list positions, so a checkpoint changes
// only the newest blocks and a compaction only those holding its pair.
// Each block taken is the largest that starts where the last one ended and
// holds no unselected frame, so O(log n) blocks tile n selected frames.
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

// rawSources hands add what covers frames[lo:hi], an aligned block of the
// checkpoint frames: each frame alone, or, when runs are asked for and the
// block holds minRun frames or more, the merge of them all, kept.
func (s *Store) rawSources(frames []frameMeta, lo, hi int, runs bool, add func(*streaming.Stored)) error {
	if !runs || hi-lo < minRun {
		for _, fm := range frames[lo:hi] {
			st, err := s.frameState(fm)
			if err != nil {
				return err
			}
			add(st)
		}
		return nil
	}
	key := runKey{frames[lo].Seq, frames[hi-1].Seq}
	st, ok := s.frameCache.get(key).(*streaming.Stored)
	if !ok {
		var err error
		if st, err = s.mergeFrames(frames[lo:hi]); err != nil {
			return err
		}
		s.cacheState(key, st)
	}
	add(st)
	return nil
}

// mergeFrames merges the frames' states into one, with every bin and the
// full counter tables: what a compaction writes and a run keeps. Its window
// spans the frames' combined hours (validated metadata, so at most
// streaming.MaxWindowHours): a shard at the live window would evict the
// oldest, for compaction for good. DecodeStored adopts the window it records.
func (s *Store) mergeFrames(frames []frameMeta) (*streaming.Stored, error) {
	cfg := s.cfg
	minH, maxH := int64(-1), int64(-1)
	for _, fm := range frames {
		minH, maxH = mergeBound(minH, fm.MinHour, false), mergeBound(maxH, fm.MaxHour, true)
	}
	if need := int(maxH - minH + 1); minH >= 0 && need > cfg.WindowHours {
		cfg.WindowHours = need
	}
	m := streaming.New(cfg)
	err := s.rawSources(frames, 0, len(frames), false, m.MergeStored)
	if err != nil {
		return nil, err
	}
	return m.Detach(time.Time{}, time.Time{}), nil
}

// tierSources is rawSources for one tier level's frames: a run of them is
// summed into one frame at that level, resolved against the store's
// district table like every frame a query adds.
func (s *Store) tierSources(list []tier.Meta, lo, hi int, runs bool, add func(*tier.Frame)) error {
	if !runs || hi-lo < minRun {
		for _, m := range list[lo:hi] {
			f, err := s.loadTierFrame(m)
			if err != nil {
				return err
			}
			add(f)
		}
		return nil
	}
	key := runKey{list[lo].Seq, list[hi-1].Seq}
	f, ok := s.frameCache.get(key).(*tier.Frame)
	if !ok {
		b := tier.NewBuilder(list[lo].Level.Resolution(), s.cfg.Origin)
		err := s.tierSources(list, lo, hi, false, b.AddFrame)
		if err == nil {
			f, err = b.Run()
		}
		if err != nil {
			return err
		}
		s.frameCache.put(key, f)
	}
	add(f)
	return nil
}

// pruneFrameCache drops what no longer has both ends registered: a query
// reads its frame lists under mu and the frames outside it, so it can cache
// what compaction has just retired, and seqs are not reused. Every
// Checkpoint ends with this sweep; its caller holds ckptMu, so the
// registered lists cannot change between the snapshot and the sweep.
//
// It also bounds the prefix table, which only grows: past s.prefixCap ids
// the store starts a fresh one, gives the tail its ids in it and drops
// the whole cache, so what is read next is decoded and
// resolved again. (A state a query resolved against the old table just
// before may still be cached after; a fold interns its rows, see
// streaming.PrefixTable.IDs.)
func (s *Store) pruneFrameCache() {
	s.mu.Lock()
	fresh := s.prefixes.Load().Len() > s.prefixCap
	if fresh {
		t := streaming.NewPrefixTable()
		s.prefixes.Store(t)
		s.tail.Intern(t)
	}
	registered := make(map[uint64]bool, len(s.frames)+len(s.tierDay)+len(s.tierWeek))
	for _, fm := range s.frames {
		registered[fm.Seq] = true
	}
	for _, list := range [][]tier.Meta{s.tierDay, s.tierWeek} {
		for _, m := range list {
			registered[m.Seq] = true
		}
	}
	s.mu.Unlock()
	s.frameCache.retain(func(k runKey) bool { return !fresh && registered[k.first] && registered[k.last] })
}
