package api

import (
	"fmt"
	"slices"
	"sync"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/obs"
)

// respCache is the concurrent single-flight response cache: one rendered
// body per question — the endpoint and canonical request parameters,
// the strings etagFor hashes — with the strong ETag of that body kept
// inside the entry, the way client.Client keeps one validated body per
// URL on the other side of the shard hop. N identical dashboard hits
// between data changes cost one serialization: the first request
// marshals, everyone else — concurrent or later — gets the cached bytes.
// A question asked under a tag its entry does not answer replaces the
// entry: under ingest a superseded answer is never asked for again, so
// the cache holds at most one body per question and max bounds
// questions.
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
	// asked is the tag of the lookup that started the fill.
	asked string
	// tag is the strong ETag of the body, set under the cache's mu when
	// the fill ends; empty while it runs and after it failed.
	tag     string
	err     error
	lastUse uint64
	again   bool // the second build under one tag (see unkept)
}

// unkept reports a finished body that met closed blocks for the first
// time: they are kept from their second sighting on, so the next request
// builds it once more instead of every one deflating it whole.
func (e *cacheEntry) unkept() bool {
	return e.tag != "" && !e.again && slices.ContainsFunc(e.cuts, func(c v1.Cut) bool { return c.Block == nil })
}

// respCacheEntries bounds a server's response cache. It is a constant
// rather than an option: no daemon, harness or test ever set a second
// value.
const respCacheEntries = 128

func newRespCache(max int) *respCache {
	return &respCache{max: max, entries: make(map[string]*cacheEntry)}
}

// get returns the entry answering question under tag, running fill
// exactly once per (question, tag) across concurrent callers. An entry
// answers when it was started for tag or holds a body under it; any
// other entry of the question is replaced, and whoever still waits on
// the replaced one gets its body. fill reports the tag of the body it
// built, which may be newer than the one asked for; a failed fill is not
// kept — the next request builds again. The entry outlives the request
// by up to max-1 other questions: fill hands over a body copied out of
// the room it was rendered in (rendered).
func (c *respCache) get(question, tag string, fill func() (built, string, error)) (*cacheEntry, error) {
	c.mu.Lock()
	c.clock++
	was, ok := c.entries[question]
	same := ok && (was.asked == tag || was.tag == tag)
	if same && !was.unkept() {
		was.lastUse = c.clock
		c.mu.Unlock()
		c.hits.Inc()
		<-was.ready
		return was, was.err
	}
	e := &cacheEntry{ready: make(chan struct{}), asked: tag, lastUse: c.clock, again: same}
	c.entries[question] = e
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Inc()

	var own string
	e.built, own, e.err = runFill(fill)
	c.mu.Lock()
	e.tag = own
	if e.err != nil && c.entries[question] == e {
		delete(c.entries, question)
	}
	c.mu.Unlock()
	close(e.ready)
	return e, e.err
}

// runFill runs fill. A panicking fill is a failed one, so that it still
// releases its waiters, and a failed one has no tag.
func runFill(fill func() (built, string, error)) (b built, tag string, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = built{}, fmt.Errorf("api: building response: panic: %v", r)
		}
		if err != nil {
			tag = ""
		}
	}()
	return fill()
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
