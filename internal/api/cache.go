package api

import (
	"fmt"
	"sync"

	"cwatrace/internal/obs"
)

// respCache is the concurrent single-flight response cache: marshaled
// response bodies keyed by ETag (which already encodes endpoint,
// request parameters and data generation, so a key can never go stale —
// it can only fall out of use). N identical dashboard hits between data
// changes cost one serialization: the first request marshals, everyone
// else — concurrent or later — gets the cached bytes. A body is filed
// under its own tag, which the fill reports; while it is built it is
// found under the tag of the lookup that started it.
type respCache struct {
	mu      sync.Mutex
	max     int
	clock   uint64
	entries map[string]*cacheEntry

	// hits/misses are the effectiveness counters, set once at server
	// construction (nil = uninstrumented).
	hits   *obs.Counter
	misses *obs.Counter
}

// cacheEntry is one body being (or done being) marshaled. ready is
// closed once the body, its tag and err are set; waiters block on it,
// which is the single-flight collapse.
type cacheEntry struct {
	ready chan struct{}
	built
	// tag is the strong ETag of the body; empty when it has none to go
	// out under (and is then not kept).
	tag     string
	err     error
	lastUse uint64
}

// respCacheEntries bounds a server's response cache. It is a constant
// rather than an option: no daemon, harness or test ever set a second
// value.
const respCacheEntries = 128

func newRespCache(max int) *respCache {
	return &respCache{max: max, entries: make(map[string]*cacheEntry)}
}

// get returns the cached entry for key, running fill exactly once per
// key across concurrent callers. fill reports the tag of the body it
// built, under which the entry stays filed; failed and untagged fills
// are not cached — the next request builds again.
func (c *respCache) get(key string, fill func() (built, string, error)) (*cacheEntry, error) {
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.lastUse = c.clock
		c.mu.Unlock()
		c.hits.Inc()
		<-e.ready
		return e, e.err
	}
	e := &cacheEntry{ready: make(chan struct{}), lastUse: c.clock}
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Inc()

	func() {
		// A panicking fill must still release the waiters.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("api: building response: panic: %v", r)
			}
			close(e.ready)
		}()
		e.built, e.tag, e.err = fill()
		if e.err != nil {
			e.tag = ""
		}
		if cap(e.body) != len(e.body) {
			// The entry outlives the request by up to max-1 other keys:
			// hold the body, not the buffer it grew in.
			e.body = append(make([]byte, 0, len(e.body)), e.body...)
		}
	}()

	if e.tag != key {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		if e.tag != "" {
			c.entries[e.tag] = e
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	return e, e.err
}

// evictLocked drops least-recently-used entries until the cache fits.
// Evicting an in-flight entry is safe: its waiters hold the pointer and
// still get the filled body; only future lookups miss.
func (c *respCache) evictLocked() {
	for len(c.entries) > c.max {
		var (
			oldestKey string
			oldest    uint64
			found     bool
		)
		for k, e := range c.entries {
			if !found || e.lastUse < oldest {
				oldestKey, oldest, found = k, e.lastUse, true
			}
		}
		delete(c.entries, oldestKey)
	}
}
