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
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
)

// TestOneBuildPerPollUnderIngest pins the cut-stamp rule where it
// matters: a store another goroutine appends to without pause. Every
// poll of an open range finds a generation no earlier poll saw, so it is
// a cache miss — exactly one, there is no second build — and its 200
// carries the ETag of the cut its body was taken at: two responses under
// one tag are the same bytes, and on the quiesced store the tag of the
// last body, and no other, revalidates to a 304. No answer under ingest
// is asked for twice, so none is kept: the cache notes each question's
// last tag and holds no body.
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
	// name again: the cache notes one tag per question and keeps none of
	// the bodies.
	if noted, kept := cachedQuestions(s); noted > len(urls) || kept != 0 {
		t.Fatalf("%d polls of %d questions left %d cache entries and %d kept bodies", polls, len(urls), noted, kept)
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

// cachedQuestions is how many questions the server's response cache
// has an entry for, and how many of those keep a body.
func cachedQuestions(s *Server) (noted, kept int) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for _, e := range s.cache.entries {
		if e.keep {
			kept++
		}
	}
	return len(s.cache.entries), kept
}
