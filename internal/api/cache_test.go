package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
			b, _, _, err := c.get(context.Background(), "q", "k", under("k", func() ([]byte, error) {
				fills.Add(1)
				return []byte("body"), nil
			}))
			if err != nil || string(b.body) != "body" {
				t.Errorf("get: %q %v", b.body, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
}

// lookups is how many lookups c has seen.
func lookups(c *respCache) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
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
	if _, _, _, err := c.get(context.Background(), "q", "k", fill); err == nil {
		t.Fatal("first fill error swallowed")
	}
	b, _, _, err := c.get(context.Background(), "q", "k", fill)
	if err != nil || string(b.body) != "ok" {
		t.Fatalf("retry after error: %q %v", b.body, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := newRespCache(8)
	if _, _, _, err := c.get(context.Background(), "q", "k", under("k", func() ([]byte, error) { panic("boom") })); err == nil {
		t.Fatal("panicking fill returned no error")
	}
	// The question is free again.
	b, _, _, err := c.get(context.Background(), "q", "k", under("k", func() ([]byte, error) { return []byte("ok"), nil }))
	if err != nil || string(b.body) != "ok" {
		t.Fatalf("after panic: %q %v", b.body, err)
	}
}

// TestCacheKeepsFromTheSecondSighting pins the admission rule: the first
// answer under a tag is handed back as fill built it — the bytes in the
// room it was rendered in, nothing copied — and leaves only its tag; the
// question asked again under that tag builds once more and keeps a copy,
// exactly sized; from the third ask on it is a hit. A new tag starts
// over.
func TestCacheKeepsFromTheSecondSighting(t *testing.T) {
	c := newRespCache(8)
	room := make([]byte, 0, 64)
	fills := 0
	fill := func(tag string) func() (built, string, error) {
		return func() (built, string, error) {
			fills++
			return built{body: append(room[:0], tag...)}, tag, nil
		}
	}
	held := func() *cacheEntry {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries["q"]
	}
	for ask, want := range []struct {
		tag          string
		fills        int
		kept, inRoom bool
	}{
		{"a", 1, false, true},
		{"a", 2, true, false},
		{"a", 2, true, false},
		{"b", 3, false, true},
		{"b", 4, true, false},
	} {
		b, tag, done, err := c.get(context.Background(), "q", want.tag, fill(want.tag))
		done() // written
		if err != nil || tag != want.tag || string(b.body) != want.tag || fills != want.fills {
			t.Fatalf("ask %d: %q under %q (%v) after %d fills, want %q after %d", ask, b.body, tag, err, fills, want.tag, want.fills)
		}
		if inRoom := &b.body[0] == &room[:1][0]; inRoom != want.inRoom {
			t.Fatalf("ask %d: body in the fill's room: %t, want %t", ask, inRoom, want.inRoom)
		}
		if e := held(); e.keep != want.kept || (e.body != nil) != want.kept || e.tag != want.tag {
			t.Fatalf("ask %d: entry keeps %t (%d bytes) under %q, want %t under %q", ask, e.keep, len(e.body), e.tag, want.kept, want.tag)
		}
		if want.kept && cap(b.body) != len(b.body) {
			t.Fatalf("ask %d: kept body of %d bytes holds %d", ask, len(b.body), cap(b.body))
		}
	}
}

// TestCacheLendsTheFirstAnswerWhileWritten pins the lend: while its
// writer holds it, a first answer is the entry's, so a lookup then is a
// hit, answered by a copy the entry keeps; the room is the writer's
// again once it is done.
func TestCacheLendsTheFirstAnswerWhileWritten(t *testing.T) {
	c := newRespCache(8)
	room := []byte("body")
	b, _, done, err := c.get(context.Background(), "q", "k", func() (built, string, error) {
		return built{body: room}, "k", nil
	})
	if err != nil || &b.body[0] != &room[0] {
		t.Fatalf("first answer: %q in its room %t, %v", b.body, &b.body[0] == &room[0], err)
	}
	refill := under("k", func() ([]byte, error) {
		t.Error("a lent body was built again")
		return nil, nil
	})
	for ask := 0; ask < 2; ask++ {
		hit, _, _, err := c.get(context.Background(), "q", "k", refill)
		if err != nil || string(hit.body) != "body" || &hit.body[0] == &room[0] {
			t.Fatalf("ask %d: %q in the room %t, %v", ask, hit.body, &hit.body[0] == &room[0], err)
		}
		done()
		copy(room, "gone") // written: the room is used again
	}
}

// TestCacheFilesUnderTheBodysTag pins what a question's one entry
// answers: everyone who waited at the tag a fill was started for shares
// that fill and is handed the body under the body's own tag, which the
// fill keeps, since it was asked for twice; the question asked under the
// body's tag afterwards is a hit; asked under a newer tag it is a miss
// that replaces the entry, while a waiter still holding the replaced one
// reads the body it waited for; and a failed fill leaves no entry at
// all.
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
		arrived := lookups(c) + uint64(n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, tag, done, err := c.get(context.Background(), "q", asked, func() (built, string, error) {
					close(started) // a second fill would panic here
					<-gate
					return built{body: []byte(body)}, stamped, nil
				})
				if err != nil || tag != stamped || string(b.body) != body {
					t.Errorf("waiter at %q got %q under %q, %v", asked, b.body, tag, err)
				}
				done()
			}()
		}
		<-started
		for lookups(c) < arrived {
			runtime.Gosched()
		}
		return func() { close(gate); wg.Wait() }
	}
	refill := func() (built, string, error) {
		t.Error("a kept body was built again")
		return built{}, "", nil
	}
	ask := func(tag string, fill func() (built, string, error)) (string, string) {
		b, got, done, _ := c.get(context.Background(), "q", tag, fill)
		done()
		return string(b.body), got
	}

	waiters(4, "asked", "stamped", "first")()
	for _, tag := range []string{"stamped", "asked"} {
		if body, got := ask(tag, refill); body != "first" || got != "stamped" {
			t.Fatalf("asked under %q: %q under %q", tag, body, got)
		}
	}

	// A newer tag replaces the entry, finished or in flight, and the
	// replaced fill does not put itself back when it ends. Asked alone,
	// the newest answer is kept at its second sighting.
	release := waiters(2, "newer", "newer", "second")
	third := under("newest", func() ([]byte, error) { return []byte("third"), nil })
	if body, _ := ask("newest", third); body != "third" || entries() != 1 {
		t.Fatalf("replacing: %q, %d entries", body, entries())
	}
	release()
	if body, _ := ask("newest", third); body != "third" || entries() != 1 {
		t.Fatalf("after the replaced fill ended: %q, %d entries", body, entries())
	}
	if body, _ := ask("newest", refill); body != "third" {
		t.Fatalf("third ask under the newest tag: %q", body)
	}

	fills := 0
	for i := 0; i < 2; i++ {
		_, tag, _, err := c.get(context.Background(), "failing", "asked", func() (built, string, error) {
			fills++
			return built{}, "asked", errors.New("failed")
		})
		if tag != "" || err == nil {
			t.Fatalf("fill %d: tag %q, %v", i, tag, err)
		}
	}
	if fills != 2 || entries() != 1 {
		t.Fatalf("failed fills: %d fills and %d entries, want 2 and 1", fills, entries())
	}
}

// TestCacheWaiterLeavesAtItsDeadline pins the one wait in the cache: a
// lookup joined to another's fill returns when its own context ends,
// with the context's error, while the fill runs on — and keeps its body,
// since it was asked for twice.
func TestCacheWaiterLeavesAtItsDeadline(t *testing.T) {
	c := newRespCache(8)
	started, gate, filled := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(filled)
		c.get(context.Background(), "q", "k", under("k", func() ([]byte, error) {
			close(started)
			<-gate
			return []byte("body"), nil
		}))
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, _, err := c.get(ctx, "q", "k", under("k", func() ([]byte, error) {
		t.Error("a waiter started a fill of its own")
		return nil, nil
	})); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter past its deadline: %v", err)
	}
	close(gate)
	<-filled
	b, _, _, err := c.get(context.Background(), "q", "k", under("k", func() ([]byte, error) {
		t.Error("the waited-on body was not kept")
		return nil, nil
	}))
	if err != nil || string(b.body) != "body" {
		t.Fatalf("after the fill: %q %v", b.body, err)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newRespCache(4)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		for ask := 0; ask < 2; ask++ { // kept from the second sighting
			_, _, done, err := c.get(context.Background(), key, "t", under("t", func() ([]byte, error) { return []byte(key), nil }))
			if err != nil {
				t.Fatal(err)
			}
			done()
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
	if _, _, _, err := c.get(context.Background(), "k9", "t", under("t", func() ([]byte, error) { refilled = true; return nil, nil })); err != nil {
		t.Fatal(err)
	}
	if refilled {
		t.Fatal("LRU evicted the most recently used key")
	}
}

// TestBodiesAreExactlySized pins the memory fix: a kept body lives as
// long as its ETag is in use, so it must not carry the spare capacity of
// the room it was rendered in. Every kind of body — both data bodies,
// an envelope, compact and indented — comes out of renderBody as the
// bytes a json.Encoder writes and is kept with cap == len, and that is
// what the response cache holds of a question asked twice.
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
			b, err := renderBody(make([]byte, 0, 1<<16), v, pretty, nil)
			if err != nil {
				t.Fatal(err)
			}
			if body := kept(b).body; cap(body) != len(body) {
				t.Errorf("%T pretty=%t: kept body of %d bytes holds %d", v, pretty, len(body), cap(body))
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			if pretty {
				enc.SetIndent("", "  ")
			}
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.body, want.Bytes()) {
				t.Errorf("%T pretty=%t:\n got %s\nwant %s", v, pretty, b.body, want.Bytes())
			}
		}
	}

	_, ts := storeServer(t)
	paths := []string{"/api/v1/query", "/api/v1/query?pretty=1", "/api/v1/snapshot?fields=hourly", "/api/v1/query?format=state"}
	for _, path := range append(paths, paths...) { // kept from the second sighting
		get(t, ts.URL+path, nil)
	}
	cache := ts.Config.Handler.(*Server).cache
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if len(cache.entries) != len(paths) {
		t.Fatalf("%d cache entries, want %d", len(cache.entries), len(paths))
	}
	for key, e := range cache.entries {
		if !e.keep || cap(e.body) != len(e.body) {
			t.Errorf("cache entry %s: kept %t, body of %d bytes holds %d", key, e.keep, len(e.body), cap(e.body))
		}
	}
}

// TestNewQuestionRendersOnce pins what a question the edge has not
// answered before costs to render: the body is rendered in scratch room
// an earlier render left and written from there, so nothing of its size
// is allocated — it is copied only when its question comes back. At the
// parent of this test the year body below allocated 1.00 times its
// length (the copy the response cache kept of every body), and 6.8
// times before that: grown from nothing by doubling, copied to size,
// and every name with an umlaut marshaled by encoding/json.
func TestNewQuestionRendersOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	render := func(v any) (b built) {
		withRoom(func(room []byte) []byte {
			var err error
			if b, err = renderBody(room, v, false, nil); err != nil {
				t.Fatal(err)
			}
			return b.body
		})
		return b
	}
	render(hourAnswer(8760)) // another question leaves the room
	year := hourAnswer(8736)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the scratch
	least := ^uint64(0)
	var body built
	for pass := 0; pass < 3; pass++ { // strays only ever add
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := render(year)
		runtime.ReadMemStats(&after)
		body, least = b, min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a year-span body of %d bytes allocates %d rendering", len(body.body), least)
	if least*100 > uint64(len(body.body)) {
		t.Errorf("rendering a %d-byte body allocates %d bytes, want at most 1%% of the body", len(body.body), least)
	}
}
