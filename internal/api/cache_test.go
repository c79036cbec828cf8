package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	v1 "cwatrace/internal/api/v1"
)

// under adapts a body builder to a fill whose body goes out under tag.
func under(tag string, fill func() ([]byte, error)) func() (built, string, error) {
	return func() (built, string, error) {
		body, err := fill()
		return built{body: body}, tag, err
	}
}

// TestCacheSingleFlight requires N concurrent identical requests to
// cost exactly one fill.
func TestCacheSingleFlight(t *testing.T) {
	c := newRespCache(8)
	var fills atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			e, err := c.get("q", "k", under("k", func() ([]byte, error) {
				fills.Add(1)
				return []byte("body"), nil
			}))
			if err != nil || string(e.body) != "body" {
				t.Errorf("get: %q %v", e.body, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newRespCache(8)
	calls := 0
	fill := under("k", func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	})
	if _, err := c.get("q", "k", fill); err == nil {
		t.Fatal("first fill error swallowed")
	}
	e, err := c.get("q", "k", fill)
	if err != nil || string(e.body) != "ok" {
		t.Fatalf("retry after error: %q %v", e.body, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := newRespCache(8)
	if _, err := c.get("q", "k", under("k", func() ([]byte, error) { panic("boom") })); err == nil {
		t.Fatal("panicking fill returned no error")
	}
	// The question is free again.
	e, err := c.get("q", "k", under("k", func() ([]byte, error) { return []byte("ok"), nil }))
	if err != nil || string(e.body) != "ok" {
		t.Fatalf("after panic: %q %v", e.body, err)
	}
}

// TestCacheFilesUnderTheBodysTag pins what a question's one entry
// answers: everyone who waited at the tag a fill was started for shares
// that fill and is handed the body under the body's own tag; the
// question asked under the body's tag afterwards is a hit; asked under a
// newer tag it is a miss that replaces the entry, while a waiter still
// holding the replaced one reads the body it waited for; and a failed
// fill leaves no entry at all.
func TestCacheFilesUnderTheBodysTag(t *testing.T) {
	c := newRespCache(8)
	entries := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.entries)
	}
	// waiters starts n lookups of ("q", asked), blocks their one fill
	// until the returned release is called, and returns once all n are at
	// the entry.
	waiters := func(n int, asked, stamped, body string) (release func()) {
		started, gate := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		c.mu.Lock()
		arrived := c.clock + uint64(n)
		c.mu.Unlock()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := c.get("q", asked, func() (built, string, error) {
					close(started) // a second fill would panic here
					<-gate
					return built{body: []byte(body)}, stamped, nil
				})
				if err != nil || e.tag != stamped || string(e.body) != body {
					t.Errorf("waiter at %q got %q under %q, %v", asked, e.body, e.tag, err)
				}
			}()
		}
		<-started
		for lookups := uint64(0); lookups < arrived; runtime.Gosched() {
			c.mu.Lock()
			lookups = c.clock
			c.mu.Unlock()
		}
		return func() { close(gate); wg.Wait() }
	}
	refill := func() (built, string, error) {
		t.Error("a kept body was built again")
		return built{}, "", nil
	}

	waiters(4, "asked", "stamped", "first")()
	for _, tag := range []string{"stamped", "asked"} {
		if e, _ := c.get("q", tag, refill); string(e.body) != "first" || e.tag != "stamped" {
			t.Fatalf("asked under %q: %q under %q", tag, e.body, e.tag)
		}
	}

	// A newer tag replaces the entry, finished or in flight, and the
	// replaced fill does not put itself back when it ends.
	release := waiters(2, "newer", "newer", "second")
	e, err := c.get("q", "newest", under("newest", func() ([]byte, error) { return []byte("third"), nil }))
	if err != nil || string(e.body) != "third" || entries() != 1 {
		t.Fatalf("replacing: %q, %v, %d entries", e.body, err, entries())
	}
	release()
	if e, _ := c.get("q", "newest", refill); string(e.body) != "third" || entries() != 1 {
		t.Fatalf("after the replaced fill ended: %q, %d entries", e.body, entries())
	}

	fills := 0
	for i := 0; i < 2; i++ {
		e, err := c.get("failing", "asked", func() (built, string, error) {
			fills++
			return built{}, "asked", errors.New("failed")
		})
		if e.tag != "" || err == nil {
			t.Fatalf("fill %d: tag %q, %v", i, e.tag, err)
		}
	}
	if fills != 2 || entries() != 1 {
		t.Fatalf("failed fills: %d fills and %d entries, want 2 and 1", fills, entries())
	}
}

func TestCacheEviction(t *testing.T) {
	c := newRespCache(4)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.get(key, "t", under("t", func() ([]byte, error) { return []byte(key), nil })); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, cap 4", n)
	}
	// The most recent key is still served without a refill.
	refilled := false
	if _, err := c.get("k9", "t", under("t", func() ([]byte, error) { refilled = true; return nil, nil })); err != nil {
		t.Fatal(err)
	}
	if refilled {
		t.Fatal("LRU evicted the most recently used key")
	}
}

// TestBodiesAreExactlySized pins the memory fix: a cached body lives as
// long as its ETag is in use, so it must not carry the spare capacity of
// the buffer it was rendered in. Every kind of body — both data bodies,
// an envelope, compact and indented — comes out of renderBody with
// cap == len and the bytes a json.Encoder writes, and that is what the
// response cache ends up holding.
func TestBodiesAreExactlySized(t *testing.T) {
	snap := v1.NewSnapshot(sampleStore(t, 2).Snapshot(), v1.AllFields, 0)
	values := []any{
		snap,
		&v1.QueryResponse{Frames: 2, Snapshot: snap, Resolution: "hour"},
		v1.ErrorResponse{Error: &v1.Error{Code: v1.CodeBadRequest, Message: "<bad> & worse"}},
		v1.HealthResponse{Status: v1.StatusOK},
	}
	for _, v := range values {
		for _, pretty := range []bool{false, true} {
			b, err := renderBody(v, pretty, nil)
			if err != nil {
				t.Fatal(err)
			}
			body := b.body
			if cap(body) != len(body) {
				t.Errorf("%T pretty=%t: body of %d bytes holds %d", v, pretty, len(body), cap(body))
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			if pretty {
				enc.SetIndent("", "  ")
			}
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Errorf("%T pretty=%t:\n got %s\nwant %s", v, pretty, body, want.Bytes())
			}
		}
	}

	_, ts := storeServer(t)
	for _, path := range []string{"/api/v1/query", "/api/v1/query?pretty=1", "/api/v1/snapshot?fields=hourly", "/api/v1/query?format=state"} {
		get(t, ts.URL+path, nil)
	}
	cache := ts.Config.Handler.(*Server).cache
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if len(cache.entries) != 4 {
		t.Fatalf("%d cache entries, want 4", len(cache.entries))
	}
	for key, e := range cache.entries {
		if cap(e.body) != len(e.body) {
			t.Errorf("cache entry %s: body of %d bytes holds %d", key, len(e.body), cap(e.body))
		}
	}
}

// TestNewQuestionRendersOnce pins what a question the edge has not
// answered before costs to render: the body is rendered in scratch room
// an earlier render left, and the one allocation is its exact copy. At
// the parent of this test the year body below allocated 6.8 times its
// length: grown from nothing by doubling, copied to size, and every
// name with an umlaut marshaled by encoding/json.
func TestNewQuestionRendersOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	if _, err := renderBody(hourAnswer(8760), false, nil); err != nil { // another question leaves the room
		t.Fatal(err)
	}
	year := hourAnswer(8736)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the scratch
	least := ^uint64(0)
	var body built
	for pass := 0; pass < 3; pass++ { // strays only ever add
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := renderBody(year, false, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		body, least = b, min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if cap(body.body) != len(body.body) {
		t.Fatalf("body of %d bytes holds %d", len(body.body), cap(body.body))
	}
	t.Logf("a year-span body of %d bytes allocates %d rendering", len(body.body), least)
	if least*100 > uint64(len(body.body))*115 {
		t.Errorf("rendering a %d-byte body allocates %d bytes, want at most 1.15 times the body", len(body.body), least)
	}
}
