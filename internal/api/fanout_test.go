package api

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// fakeFanout is a scripted Fanout for exercising the handler contract
// without a fleet.
type fakeFanout struct {
	shards  int
	res     FanResult
	stats   FanStats
	missing []ShardError
	// moving gives every gather a Version of its own, as a fleet under
	// ingest does.
	moving  bool
	gathers atomic.Uint64
}

func (f *fakeFanout) NumShards() int { return f.shards }
func (f *fakeFanout) Nonce() uint64  { return 42 }
func (f *fakeFanout) gather() (*FanResult, error) {
	r := f.res
	if f.moving {
		r.Version = f.gathers.Add(1)
	}
	return &r, nil
}
func (f *fakeFanout) Snapshot(context.Context) (*FanResult, error) { return f.gather() }
func (f *fakeFanout) Query(context.Context, time.Time, time.Time, tier.Resolution) (*FanResult, error) {
	return f.gather()
}
func (f *fakeFanout) Stats(context.Context) (*FanStats, error) {
	s := f.stats
	return &s, nil
}
func (f *fakeFanout) Health(context.Context) []ShardError { return f.missing }

func fanServer(t *testing.T, f *fakeFanout) *Server {
	t.Helper()
	s, err := New(Config{Fanout: f})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fanGet(t *testing.T, s *Server, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func emptySnap() *streaming.Snapshot {
	return streaming.New(streaming.Config{WindowHours: 8}).Snapshot()
}

// TestFanoutDegradedEnvelope pins the wire shape of a partial response:
// 206, no-store, no ETag, degraded marker naming shard and node.
func TestFanoutDegradedEnvelope(t *testing.T) {
	f := &fakeFanout{shards: 3, res: FanResult{
		Snapshot: emptySnap(),
		Missing:  []ShardError{{Shard: 2, Node: "host2:8055", Err: "connection refused"}},
	}}
	s := fanServer(t, f)
	w := fanGet(t, s, "/api/v1/snapshot", nil)
	if w.Code != 206 || w.Header().Get("Cache-Control") != "no-store" || w.Header().Get("ETag") != "" {
		t.Fatalf("degraded response: %d %q %q", w.Code, w.Header().Get("Cache-Control"), w.Header().Get("ETag"))
	}
	var snap v1.Snapshot
	if err := json.NewDecoder(w.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	d := snap.Degraded
	if d == nil || len(d.MissingShards) != 1 || d.MissingShards[0] != 2 ||
		len(d.Nodes) != 1 || d.Nodes[0] != "host2:8055" || d.Detail != "connection refused" {
		t.Fatalf("degraded marker: %+v", d)
	}
}

// TestFanoutAllDownIsUnavailable: no shard at all is an explicit 503
// error envelope, never an empty 200.
func TestFanoutAllDownIsUnavailable(t *testing.T) {
	f := &fakeFanout{shards: 2, res: FanResult{
		Missing: []ShardError{{Shard: 0, Node: "a", Err: "x"}, {Shard: 1, Node: "b", Err: "y"}},
	}}
	s := fanServer(t, f)
	w := fanGet(t, s, "/api/v1/query", nil)
	var env v1.ErrorResponse
	if err := json.NewDecoder(w.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if w.Code != 503 || env.Error == nil || env.Error.Code != v1.CodeUnavailable {
		t.Fatalf("all-down response: %d %+v", w.Code, env.Error)
	}
}

// TestFanoutValidatedRoundTrip pins the composite-validator path: a
// complete gather serves a strong ETag and a bodyless 304 on
// If-None-Match.
func TestFanoutValidatedRoundTrip(t *testing.T) {
	f := &fakeFanout{shards: 2, res: FanResult{Snapshot: emptySnap(), Version: 99}}
	s := fanServer(t, f)
	w := fanGet(t, s, "/api/v1/snapshot", nil)
	etag := w.Header().Get("ETag")
	if w.Code != 200 || etag == "" || w.Header().Get("Cache-Control") != "no-cache" {
		t.Fatalf("validated response: %d %q %q", w.Code, etag, w.Header().Get("Cache-Control"))
	}
	w = fanGet(t, s, "/api/v1/snapshot", map[string]string{"If-None-Match": etag})
	if w.Code != 304 || w.Body.Len() != 0 {
		t.Fatalf("revalidation: %d with %d body bytes", w.Code, w.Body.Len())
	}
	// A version bump invalidates.
	f.res.Version = 100
	w = fanGet(t, s, "/api/v1/snapshot", map[string]string{"If-None-Match": etag})
	if w.Code != 200 || w.Header().Get("ETag") == etag {
		t.Fatalf("post-bump revalidation: %d %q", w.Code, w.Header().Get("ETag"))
	}
}

// TestFanoutOneBuildPerPollUnderIngest is TestOneBuildPerPollUnderIngest
// through a router: every gather of a fleet under ingest carries a
// composite version no earlier one had, so every poll is one miss and
// one build, leaves under the tag of its own gather, and replaces the
// entry the poll before left for its question — the cache notes one tag
// per question however many answers went by, and keeps no body, since
// none was asked for twice.
func TestFanoutOneBuildPerPollUnderIngest(t *testing.T) {
	f := &fakeFanout{shards: 2, moving: true, res: FanResult{Snapshot: emptySnap()}}
	s, err := New(Config{Fanout: f, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{
		"/api/v1/snapshot",
		"/api/v1/snapshot?fields=hourly",
		"/api/v1/query",
		"/api/v1/query?resolution=day",
		"/api/v1/query?from=1592265600&pretty=1",
	}
	const polls = 100
	tags := map[string]bool{}
	last := make([]string, len(urls))
	for i := 0; i < polls; i++ {
		w := fanGet(t, s, urls[i%len(urls)], map[string]string{"If-None-Match": last[i%len(urls)]})
		tag := w.Header().Get("ETag")
		if w.Code != 200 || tag == "" || tags[tag] {
			t.Fatalf("poll %d: status %d, ETag %q (seen before: %t)", i, w.Code, tag, tags[tag])
		}
		tags[tag], last[i%len(urls)] = true, tag
	}
	if built := s.m.cacheMisses.Value(); built != polls || s.m.cacheHits.Value() != 0 {
		t.Fatalf("%d polls cost %d builds and %d hits, want one build each", polls, built, s.m.cacheHits.Value())
	}
	if noted, kept := cachedQuestions(s); noted != len(urls) || kept != 0 {
		t.Fatalf("%d polls of %d questions left %d cache entries and %d kept bodies", polls, len(urls), noted, kept)
	}

	// At rest the last answer is asked for again: its second sighting
	// builds it once more under the same tag and keeps it, the next ask
	// is a hit, and its tag a 304.
	f.moving = false
	f.res.Version = f.gathers.Load()
	url, tag := urls[(polls-1)%len(urls)], last[(polls-1)%len(urls)]
	for ask, hits := range []uint64{0, 1} {
		w := fanGet(t, s, url, nil)
		if w.Code != 200 || w.Header().Get("ETag") != tag || s.m.cacheHits.Value() != hits || s.m.cacheMisses.Value() != polls+1 {
			t.Fatalf("at rest, ask %d: status %d, ETag %q, %v builds and %v hits", ask, w.Code, w.Header().Get("ETag"), s.m.cacheMisses.Value(), s.m.cacheHits.Value())
		}
	}
	if _, kept := cachedQuestions(s); kept != 1 {
		t.Fatalf("at rest: %d kept bodies, want 1", kept)
	}
	if w := fanGet(t, s, url, map[string]string{"If-None-Match": tag}); w.Code != 304 {
		t.Fatalf("at rest: revalidation answered %d", w.Code)
	}
}

// TestFanoutHealthStates walks the router health ladder: ok, degraded
// (200), all-down degraded (503), draining (503, trumps the fleet).
func TestFanoutHealthStates(t *testing.T) {
	f := &fakeFanout{shards: 2}
	s := fanServer(t, f)

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		w := fanGet(t, s, "/api/v1/health", nil)
		var h v1.HealthResponse
		if err := json.NewDecoder(w.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if w.Code != wantCode || h.Status != wantStatus {
			t.Fatalf("health = %d %q, want %d %q", w.Code, h.Status, wantCode, wantStatus)
		}
	}
	check(200, v1.StatusOK)
	f.missing = []ShardError{{Shard: 1, Node: "b", Err: "x"}}
	check(200, v1.StatusDegraded)
	f.missing = append(f.missing, ShardError{Shard: 0, Node: "a", Err: "y"})
	check(503, v1.StatusDegraded)
	s.SetDraining(true)
	check(503, v1.StatusDraining)
}
