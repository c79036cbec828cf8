package sim

import (
	"cmp"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/cryptopan"
	"cwatrace/internal/geo"
	"cwatrace/internal/netflow"
	"cwatrace/internal/netsim"
)

// This file holds the concurrency machinery of the sharded engine. The
// simulation is partitioned into one shard per district: every client (app
// device or website visitor) is homed in exactly one district, every router
// serves exactly one district, so a shard owns its devices, its web-visitor
// pools, its routers' flow caches and one collector lane outright — no
// locks on the hot path.
//
// Each day runs in three phases:
//
//  1. generate (parallel): each shard rolls address churn, asks its devices
//     for their day plan, draws the district's website visitors and the
//     filter-exercising noise, and sorts its own event list. All randomness
//     comes from a per-(day, shard) RNG stream derived from Config.Seed, so
//     the outcome does not depend on worker count or scheduling.
//  2. control (serial): a k-way merge walks the shard event lists in global
//     time order and performs the stateful hosting-side work — CDN serve,
//     backend uploads, hour-package resolution, run counters — annotating
//     each event with its response plan. This is the cheap part of the day;
//     it stays serial because backend and CDN state is genuinely global.
//  3. emit (parallel): each shard replays its own (already sorted) events,
//     synthesizing packets through its routers' flow caches with hourly
//     sweeps, and ingests exported records into its collector lane using a
//     per-(day, shard) emission RNG.
//
// Because the shard count is fixed by the geography (not by Workers) and
// every random draw is tied to a shard stream or the serial control plane,
// a run is byte-identical for a fixed seed at any worker count.

// shard is one district's slice of the simulation.
type shard struct {
	idx      int
	district geo.District

	// devIDs are the devices homed in this district, in creation order.
	devIDs []int
	// webPool are the district's website-only visitors.
	webPool []netsim.ClientAddr
	// regioPool is the Berlin/RegioNet single-ISP pool (Berlin shard only).
	regioPool []netsim.ClientAddr

	// caches are the flow caches of this district's routers, lazily
	// created; cacheOrder keeps their deterministic creation order for
	// sweeps and drains.
	caches     map[string]*netflow.Cache
	cacheOrder []string

	// sink is this shard's lock-free collector lane.
	sink *netflow.CollectorShard
	// labels is the shard-local ground-truth map, merged after the run,
	// and anon is the shard's own memo over the run's anonymizer.
	labels map[netip.Addr]byte
	anon   *cryptopan.Memo

	// events is the day's event list, reused across days via the engine's
	// pool; order is the sort keys of the day's events, reused across
	// days.
	events []event
	order  []eventKey

	// genRNG and emitRNG are the per-day deterministic streams.
	genRNG  *rand.Rand
	emitRNG *rand.Rand
}

// Purpose tags separate the two RNG streams of a (day, shard) pair.
const (
	purposeGenerate uint64 = 0x67656E65 // "gene"
	purposeEmit     uint64 = 0x656D6974 // "emit"
)

// shardSeed derives the seed of one shard stream from the run seed, the day
// index and the shard index via a splitmix64-style mix, so streams are
// statistically independent and stable across worker counts.
func shardSeed(seed int64, day, shard int, purpose uint64) int64 {
	z := uint64(seed)
	z ^= (uint64(day) + 1) * 0x9E3779B97F4A7C15
	z ^= (uint64(shard) + 1) * 0xC2B2AE3D27D4EB4F
	z ^= purpose * 0x165667B19E3779F9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// splitmix64Source is a rand.Source64 with O(1) seeding. The stock
// math/rand source seeds a 607-word lagged-Fibonacci table; profiling
// showed that re-seeding two streams per (day, district) spent ~26% of the
// whole run inside math/rand.seedrand. Splitmix64 passes BigCrush, seeds in
// one word, and keeps every shard stream fully deterministic.
type splitmix64Source struct{ state uint64 }

func (s *splitmix64Source) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix64Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmix64Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// newShardRand returns a *rand.Rand over a fresh splitmix64 stream.
func newShardRand(seed int64) *rand.Rand {
	return rand.New(&splitmix64Source{state: uint64(seed)})
}

// runShards executes fn(0..n-1) on a bounded worker pool. With one worker
// (or one shard) it degrades to a plain loop with zero goroutine overhead.
// The first error wins; remaining shards still run to completion so shard
// state is never left half-built.
func runShards(workers, n int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// eventMerger is a k-way merge over the shards' per-day event lists, each
// already sorted by time. It yields events in global (time, shard) order —
// the deterministic total order the serial control plane walks. A binary
// heap over shard heads replaces the seed engine's global sort of one giant
// slice: merging is O(total · log shards) with no extra allocation.
type eventMerger struct {
	shards []*shard
	pos    []int
	heap   []int // shard indices, ordered by their head event
}

func newEventMerger(shards []*shard) *eventMerger {
	m := &eventMerger{shards: shards, pos: make([]int, len(shards))}
	for i, s := range shards {
		if len(s.events) > 0 {
			m.heap = append(m.heap, i)
			m.siftUp(len(m.heap) - 1)
		}
	}
	return m
}

func (m *eventMerger) head(i int) time.Time {
	return m.shards[i].events[m.pos[i]].t
}

// less orders shard heads by event time, breaking ties on shard index so
// the merge is a strict total order.
func (m *eventMerger) less(a, b int) bool {
	ta, tb := m.head(a), m.head(b)
	if !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return a < b
}

func (m *eventMerger) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[p]) {
			return
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *eventMerger) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[min]) {
			min = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// next returns a pointer to the globally next event, or nil when all shard
// lists are exhausted. The pointer aliases the shard's slice so the control
// plane can annotate the event in place.
func (m *eventMerger) next() *event {
	if len(m.heap) == 0 {
		return nil
	}
	i := m.heap[0]
	s := m.shards[i]
	ev := &s.events[m.pos[i]]
	m.pos[i]++
	if m.pos[i] < len(s.events) {
		m.siftDown(0)
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		m.siftDown(0)
	}
	return ev
}

// eventPool recycles per-shard event slices across days, killing the
// per-day reallocation churn of the seed engine's one giant slice.
var eventPool = sync.Pool{New: func() any { return new([]event) }}

func getEventSlice() []event {
	return (*eventPool.Get().(*[]event))[:0]
}

func putEventSlice(evs []event) {
	evs = evs[:0]
	eventPool.Put(&evs)
}

// cacheFor returns (creating on demand) the flow cache of one of the
// shard's routers. Creation order is recorded so sweeps and drains walk
// caches deterministically.
func (s *shard) cacheFor(routerID string, cfg netflow.Config, seed int64) *netflow.Cache {
	if c, ok := s.caches[routerID]; ok {
		return c
	}
	h := fnv.New64a()
	h.Write([]byte(routerID))
	c, err := netflow.NewCache(routerID, cfg, newShardRand(seed^int64(h.Sum64())))
	if err != nil {
		// Config was validated up front; a failure here is a bug.
		panic("sim: creating flow cache: " + err.Error())
	}
	s.caches[routerID] = c
	s.cacheOrder = append(s.cacheOrder, routerID)
	return c
}

// sweep expires idle entries across the shard's caches as of now.
func (s *shard) sweep(now time.Time) {
	for _, id := range s.cacheOrder {
		if recs := s.caches[id].Sweep(now); len(recs) > 0 {
			s.sink.Ingest(recs)
			netflow.RecycleBatch(recs)
		}
	}
}

// drain flushes the shard's caches at the end of the capture.
func (s *shard) drain() {
	for _, id := range s.cacheOrder {
		if recs := s.caches[id].Drain(); len(recs) > 0 {
			s.sink.Ingest(recs)
			netflow.RecycleBatch(recs)
		}
	}
}

// label records the ground-truth kind of a client address under its
// anonymized identity, shard-locally.
func (s *shard) label(addr netip.Addr, kind byte) {
	s.labels[s.anon.Anonymize(addr)] |= kind
}

// eventKey stands for one event in sortEvents: its time and its position
// in generation order.
type eventKey struct {
	sec  int64
	nsec int32
	pos  int32
}

// sortEvents orders the shard's day by time, keeping generation order
// among events at the same instant: a stable sort. It sorts the small keys
// and moves each event once, into a slice from the pool, and returns the
// unsorted slice to the pool.
func (s *shard) sortEvents(events []event) []event {
	s.order = s.order[:0]
	for i := range events {
		t := events[i].t
		s.order = append(s.order, eventKey{sec: t.Unix(), nsec: int32(t.Nanosecond()), pos: int32(i)})
	}
	slices.SortFunc(s.order, func(a, b eventKey) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	sorted := slices.Grow(getEventSlice(), len(events))
	for _, k := range s.order {
		sorted = append(sorted, events[k.pos])
	}
	putEventSlice(events)
	return sorted
}
