package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	v1 "cwatrace/internal/api/v1"
)

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
			body, err := c.get("k", func() ([]byte, error) {
				fills.Add(1)
				return []byte("body"), nil
			})
			if err != nil || string(body) != "body" {
				t.Errorf("get: %q %v", body, err)
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
	fill := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	if _, err := c.get("k", fill); err == nil {
		t.Fatal("first fill error swallowed")
	}
	body, err := c.get("k", fill)
	if err != nil || string(body) != "ok" {
		t.Fatalf("retry after error: %q %v", body, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := newRespCache(8)
	if _, err := c.get("k", func() ([]byte, error) { panic("boom") }); err == nil {
		t.Fatal("panicking fill returned no error")
	}
	// The key is free again.
	body, err := c.get("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("after panic: %q %v", body, err)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newRespCache(4)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.get(key, func() ([]byte, error) { return []byte(key), nil }); err != nil {
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
	if _, err := c.get("k9", func() ([]byte, error) { refilled = true; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if refilled {
		t.Fatal("LRU evicted the most recently used key")
	}
}

// TestBodiesAreExactlySized pins the memory fix: a cached body lives as
// long as its ETag is in use, so it must not carry the spare capacity of
// the buffer it was rendered in. Every kind of body — both data bodies,
// an envelope, compact and indented — comes out of marshalBody with
// cap == len and the bytes a json.Encoder writes, and that is what the
// response cache ends up holding.
func TestBodiesAreExactlySized(t *testing.T) {
	snap := v1.NewSnapshot(sampleSnapshot(t, 2), v1.AllFields, 0)
	values := []any{
		snap,
		&v1.QueryResponse{Frames: 2, Snapshot: snap, Resolution: "hour"},
		v1.ErrorResponse{Error: &v1.Error{Code: v1.CodeBadRequest, Message: "<bad> & worse"}},
		v1.HealthResponse{Status: v1.StatusOK},
	}
	for _, v := range values {
		for _, pretty := range []bool{false, true} {
			body, err := marshalBody(v, pretty)
			if err != nil {
				t.Fatal(err)
			}
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
