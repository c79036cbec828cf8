package api

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// TestOneBuildPerPollUnderIngest pins the cut-stamp rule where it
// matters: a store another goroutine appends to without pause. Every
// poll of an open range finds a generation no earlier poll saw, so it is
// a cache miss — exactly one, there is no second build — and its 200
// carries the ETag of the cut its body was taken at: two responses under
// one tag are the same bytes, and on the quiesced store the tag of the
// last body, and no other, revalidates to a 304.
func TestOneBuildPerPollUnderIngest(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Analytics: testCfg(), Sync: store.SyncNever, Tier: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for h := 0; h < 4; h++ {
		if err := st.Append([]netflow.Record{keptRecord(h, h, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := New(Config{History: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var (
		appended atomic.Int64
		stop     = make(chan struct{})
		appender sync.WaitGroup
	)
	quiesce := sync.OnceFunc(func() { close(stop); appender.Wait() })
	defer quiesce() // a failing poll must not close the store under the appender
	appender.Add(1)
	go func() {
		defer appender.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Append([]netflow.Record{keptRecord(30+i%2, i, 100)}); err != nil {
				t.Error(err)
				return
			}
			appended.Add(1)
		}
	}()

	urls := []string{
		fmt.Sprintf("/api/v1/query?from=%d", entime.StudyStart.Add(24*time.Hour).Unix()),
		"/api/v1/snapshot?fields=hourly",
		"/api/v1/query?resolution=day",
		"/api/v1/query?format=state",
	}
	const polls = 200
	bodies := make([]map[string][]byte, len(urls)) // per URL: tag -> body
	for i := range bodies {
		bodies[i] = map[string][]byte{}
	}
	misses := s.m.cacheMisses.Value()
	for i := 0; i < polls; i++ {
		for seen := appended.Load(); appended.Load() == seen; { // a generation no poll has seen
			runtime.Gosched()
		}
		resp, body := get(t, ts.URL+urls[i%len(urls)], nil)
		tag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || tag == "" {
			t.Fatalf("poll %d: status %d, ETag %q", i, resp.StatusCode, tag)
		}
		if was, ok := bodies[i%len(urls)][tag]; ok && !bytes.Equal(was, body) {
			t.Fatalf("poll %d: two bodies under ETag %s", i, tag)
		}
		bodies[i%len(urls)][tag] = body
	}
	if built := s.m.cacheMisses.Value() - misses; built != polls {
		t.Fatalf("%d polls cost %d builds, want one each", polls, built)
	}
	// Every poll's answer superseded the one before it, which nobody can
	// name again: the cache holds one body per question, not per answer.
	if kept := cachedQuestions(s); kept > len(urls) {
		t.Fatalf("%d polls of %d questions left %d cached bodies", polls, len(urls), kept)
	}
	quiesce()

	for i, url := range urls {
		resp, body := get(t, ts.URL+url, nil)
		last := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || last == "" {
			t.Fatalf("%s at rest: status %d, ETag %q", url, resp.StatusCode, last)
		}
		bodies[i][last] = body
		if len(bodies[i]) < polls/len(urls)/2 {
			t.Fatalf("%s: only %d distinct tags in %d polls: ingest did not run beside them", url, len(bodies[i]), polls/len(urls))
		}
		for tag := range bodies[i] {
			resp, body := get(t, ts.URL+url, map[string]string{"If-None-Match": tag})
			switch {
			case tag == last && (resp.StatusCode != http.StatusNotModified || len(body) != 0):
				t.Fatalf("%s: the last body's tag revalidates to %d with %d bytes", url, resp.StatusCode, len(body))
			case tag != last && (resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[i][last])):
				t.Fatalf("%s: a superseded tag revalidates to %d", url, resp.StatusCode)
			}
		}
	}
}

// cachedQuestions is how many bodies the server's response cache holds.
func cachedQuestions(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.entries)
}

// movingLive is a memory-only source whose counters move with every
// read, as a pipeline's do under ingest, and that stamps nothing.
type movingLive struct {
	snap      *streaming.Snapshot
	reads     atomic.Uint64
	snapshots atomic.Int64
	still     atomic.Bool
}

func (l *movingLive) Snapshot() *streaming.Snapshot { l.snapshots.Add(1); return l.snap }
func (l *movingLive) Stats() ingest.Stats {
	if l.still.Load() {
		return ingest.Stats{Records: 1}
	}
	return ingest.Stats{Records: l.reads.Add(1)}
}

// TestUnstampedBodyIsBuiltOnce pins the one case that goes out without
// a validator: a body whose source stamps no version, built while the
// generation moved. It is served — built once, not retried —
// without an ETag and is not kept; with the generation at rest the same
// request gets the lookup's tag and revalidates.
func TestUnstampedBodyIsBuiltOnce(t *testing.T) {
	live := &movingLive{snap: sampleSnapshot(t, 1)}
	s, err := New(Config{Live: live})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 1; i <= 3; i++ {
		resp, _ := get(t, ts.URL+"/api/v1/snapshot", nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "" || resp.Header.Get("Cache-Control") != "no-cache" {
			t.Fatalf("moving: status %d, ETag %q, Cache-Control %q", resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Cache-Control"))
		}
		if n := live.snapshots.Load(); n != int64(i) {
			t.Fatalf("moving: %d requests took %d snapshots", i, n)
		}
	}
	if kept := cachedQuestions(s); kept != 0 {
		t.Fatalf("%d unvalidated bodies were kept", kept)
	}

	live.still.Store(true)
	resp, _ := get(t, ts.URL+"/api/v1/snapshot", nil)
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("at rest: no ETag")
	}
	if resp, _ := get(t, ts.URL+"/api/v1/snapshot", map[string]string{"If-None-Match": tag}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("at rest: revalidation answered %d", resp.StatusCode)
	}
}
