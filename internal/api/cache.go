package api

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/obs"
)

// respCache is the concurrent single-flight response cache: one entry
// per question — the endpoint and canonical request parameters, the
// strings etagFor hashes — with the strong ETag of its body inside, the
// way client.Client keeps one validated body per URL on the other side
// of the shard hop. A question asked under a tag its entry does not
// answer replaces the entry, so max bounds questions and bodies alike.
//
// A body is kept from its second sighting under one tag, the block
// cache's rule (gzip.go): a lookup that waits on the fill, or comes while
// the first answer is written from the room it was rendered in, is
// answered by the copy kept. An answer not asked for again — under ingest
// and in a cold working set, most — costs one render, one write and no
// memory. A first answer that met closed blocks for the first time is not
// kept: built again, it has them kept (TestBodyAtRestIsBuiltTwice).
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

// cacheEntry is one question's last answer: being built, lent, built
// once (its tag noted, no body), or kept. ready is closed once the fill
// has ended and the copy its waiters share is in place; they block on
// it, which is the single-flight collapse.
type cacheEntry struct {
	ready chan struct{}
	built
	// asked is the tag of the lookup that started the fill; tag is the
	// body's, set under the cache's mu when the fill ends (empty while
	// it runs and after it failed).
	asked, tag string
	err        error
	lastUse    uint64
	// seen marks a second sighting: the fill was started by one, or a
	// lookup waited on it. lent is a first answer's body while its writer
	// holds it, keep a body kept.
	seen, lent, keep bool
}

// respCacheEntries bounds a server's response cache: a constant, since
// no daemon, harness or test ever set a second value.
const respCacheEntries = 128

func newRespCache(max int) *respCache {
	return &respCache{max: max, entries: make(map[string]*cacheEntry)}
}

// get answers question under tag, running fill at most once per
// (question, tag) across concurrent callers. An entry answers when it
// was started for tag or holds a body under it: a lookup waits for its
// fill — or for ctx to end, which returns ctx's error — or hits its kept
// or lent body. An entry built once under tag is built again; any other
// entry of the question is replaced, and whoever still waits on the
// replaced one gets its body. fill reports the tag of the body it built,
// which may be newer than the one asked for; a failed fill is not kept.
// A body not copied is returned in fill's room, lent until done is called.
func (c *respCache) get(ctx context.Context, question, tag string, fill func() (built, string, error)) (b built, own string, done func(), err error) {
	c.mu.Lock()
	c.clock++
	was, ok := c.entries[question]
	again := ok && (was.asked == tag || was.tag == tag)
	if again && was.lent { // a first answer still being written: keep a copy
		was.built, was.lent, was.keep = kept(was.built), false, true
	}
	done = func() {}
	if again && (was.keep || was.tag == "") {
		was.lastUse, was.seen = c.clock, true
		c.mu.Unlock()
		c.hits.Inc()
		select {
		case <-was.ready:
			return was.built, was.tag, done, was.err
		case <-ctx.Done():
			return built{}, "", done, ctx.Err()
		}
	}
	e := &cacheEntry{ready: make(chan struct{}), asked: tag, lastUse: c.clock, seen: again}
	c.entries[question] = e
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Inc()

	b, own, err = runFill(fill)
	whole := !slices.ContainsFunc(b.cuts, func(c v1.Cut) bool { return c.Block == nil })
	c.mu.Lock()
	e.tag, e.err = own, err
	shared := err == nil && e.seen
	e.keep = shared && (again || whole)
	if e.lent = err == nil && !shared && whole; e.lent {
		e.built = b
		done = func() {
			c.mu.Lock()
			if e.lent {
				e.built, e.lent = built{}, false
			}
			c.mu.Unlock()
		}
	}
	if err != nil && c.entries[question] == e {
		delete(c.entries, question)
	}
	c.mu.Unlock()
	if shared { // no lookup reads it before ready
		e.built = kept(b)
		b = e.built
	}
	close(e.ready)
	return b, own, done, err
}

// kept is b with its body copied out of its room, exactly sized.
func kept(b built) built {
	b.body = bytes.Clone(b.body)[:len(b.body):len(b.body)]
	return b
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
		oldestKey, oldest := "", ^uint64(0) // every lastUse is a tick of clock, from 1
		for k, e := range c.entries {
			if e.lastUse < oldest {
				oldestKey, oldest = k, e.lastUse
			}
		}
		delete(c.entries, oldestKey)
	}
}
