package store

// Reading checkpoint frames: the one loader, and the cache of what it
// decoded. A frame file never changes once atomicWrite has renamed it
// into place and its sequence number is never reused, so the decoded
// state is valid for as long as the frame is registered — the cache
// needs no versioning, only removal when compaction retires a frame.

import (
	"fmt"
	"os"
	"sync"

	"cwatrace/internal/streaming"
)

// frameCacheBudget bounds the decoded frames a store keeps, in bytes of
// decoded state (about three times the frame files). A year of hourly
// history at the paper's scale decodes to a few MB, so everything stays
// resident; a production /24 table is orders larger, and then the least
// recently read frames are decoded per query as before. It is a constant
// rather than an option: no deployment in the repository needs a second
// value, and a store that outgrows it degrades to the uncached cost.
const frameCacheBudget = 64 << 20

// frameCache holds decoded checkpoint frames by frame sequence number,
// least recently used out once the budget is exceeded. Its mutex is a
// leaf: nothing else is taken while it is held, and it is never held
// across a file read or a decode.
type frameCache struct {
	budget int64

	mu      sync.Mutex
	entries map[uint64]*frameCacheEntry
	bytes   int64
	clock   uint64 // ticks once per access; an entry's used is its last
	hits    uint64
	misses  uint64
}

type frameCacheEntry struct {
	state *streaming.Stored
	size  int64
	used  uint64
}

func newFrameCache(budget int64) *frameCache {
	return &frameCache{budget: budget, entries: make(map[uint64]*frameCacheEntry)}
}

// get returns the cached state of frame seq, or nil.
func (c *frameCache) get(seq uint64) *streaming.Stored {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[seq]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.clock++
	e.used = c.clock
	return e.state
}

// put caches the state of frame seq and evicts the least recently used
// entries past the budget. A state larger than the whole budget is not
// kept.
func (c *frameCache) put(seq uint64, st *streaming.Stored) {
	size := int64(st.Size())
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[seq]; ok {
		c.bytes -= old.size
	}
	c.clock++
	c.entries[seq] = &frameCacheEntry{state: st, size: size, used: c.clock}
	c.bytes += size
	for c.bytes > c.budget {
		// A scan per eviction: the entry count is bounded by the frame
		// count (MaxFrames plus what a checkpoint is about to compact).
		// The entry just put is the most recently used, and fits alone.
		oldest := seq
		for s, e := range c.entries {
			if e.used < c.entries[oldest].used {
				oldest = s
			}
		}
		c.bytes -= c.entries[oldest].size
		delete(c.entries, oldest)
	}
}

// retain drops every entry whose frame keep does not report registered.
func (c *frameCache) retain(keep func(seq uint64) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq, e := range c.entries {
		if !keep(seq) {
			c.bytes -= e.size
			delete(c.entries, seq)
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
	// for a multi-GB ring. Valid frames are either both -1 (accounting
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
	if st := s.frameCache.get(fm.Seq); st != nil {
		return st, nil
	}
	_, st, err := loadFrame(fm, s.cfg)
	if err != nil {
		return nil, err
	}
	s.frameCache.put(fm.Seq, st)
	return st, nil
}

// pruneFrameCache drops cached frames that are no longer registered. A
// query snapshots its frame list under mu and loads outside it, so it
// can cache a frame just after compaction retired it; sequence numbers
// are not reused, so nothing would ever look that entry up or drop it
// again. Every Checkpoint ends with this sweep. Caller holds ckptMu, so
// the registered set cannot change between the snapshot and the sweep.
func (s *Store) pruneFrameCache() {
	s.mu.Lock()
	registered := make(map[uint64]bool, len(s.frames))
	for _, fr := range s.frames {
		registered[fr.Seq] = true
	}
	s.mu.Unlock()
	s.frameCache.retain(func(seq uint64) bool { return registered[seq] })
}
