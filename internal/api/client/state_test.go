package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwatrace/internal/api"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
)

// TestStateFetchSurfacesETag pins the state fetch the cluster router
// composes its validator from, against a real shard API: the request
// asks for the state representation uncompressed, the first fetch
// returns the shard's strong ETag with bytes that decode, and a
// revalidated fetch is a 304 on the wire that replays the byte-identical
// cached state under the SAME tag — the tag identifies bytes, not
// transfers. The JSON fetch of the same range shares neither cache entry
// nor validator.
func TestStateFetchSurfacesETag(t *testing.T) {
	_, shard, full := testServer(t)
	var (
		mu       sync.Mutex
		statuses []int
	)
	wire := func() []int {
		mu.Lock()
		defer mu.Unlock()
		out := statuses
		statuses = nil
		return out
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "state" && r.Header.Get("Accept-Encoding") != "identity" {
			t.Errorf("state request asked for Accept-Encoding %q, want identity", r.Header.Get("Accept-Encoding"))
		}
		rec := httptest.NewRecorder()
		shard.Config.Handler.ServeHTTP(rec, r)
		mu.Lock()
		statuses = append(statuses, rec.Code)
		mu.Unlock()
		if rec.Header().Get("Content-Encoding") != "" {
			t.Errorf("%s answered with Content-Encoding %q", r.URL, rec.Header().Get("Content-Encoding"))
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	from, to := entime.StudyStart, entime.StudyStart.Add(4*time.Hour)

	for name, fetch := range map[string]func() ([]byte, string, error){
		"snapshot": func() ([]byte, string, error) { return c.SnapshotState(ctx) },
		"query":    func() ([]byte, string, error) { return c.QueryState(ctx, from, to, "") },
	} {
		wire()
		first, etag, err := fetch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if etag == "" {
			t.Fatalf("%s: state fetch surfaced no ETag", name)
		}
		st, err := api.DecodeState(first)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The shard's origin is anchored at +02:00; it must come back so.
		if _, off := st.Origin.Zone(); off != 2*3600 || !st.Origin.Equal(entime.StudyStart) {
			t.Fatalf("%s: origin came back as %s", name, st.Origin)
		}
		fullBefore := full.Load()
		second, etag2, err := fetch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := wire(); len(got) != 2 || got[0] != http.StatusOK || got[1] != http.StatusNotModified || full.Load() != fullBefore {
			t.Fatalf("%s: wire statuses %v, want a 200 then a 304", name, got)
		}
		if etag2 != etag || !bytes.Equal(first, second) {
			t.Fatalf("%s: revalidated fetch returned tag %q (first %q), identical bytes %v", name, etag2, etag, bytes.Equal(first, second))
		}
	}

	// One range, two representations: separate validators, and the JSON
	// fetch is not answered from the cached state.
	if _, err := c.Query(ctx, from, to, nil); err != nil {
		t.Fatalf("JSON query after the state fetch: %v", err)
	}
	_, etag, _ := c.QueryState(ctx, from, to, "")
	c.mu.Lock()
	defer c.mu.Unlock()
	tags := map[string]bool{}
	for _, e := range c.cache {
		tags[e.etag] = true
	}
	if len(c.cache) != 3 || len(tags) != 3 || !tags[etag] {
		t.Fatalf("cache holds %d entries under %d tags, want snapshot state, query state and query JSON apart", len(c.cache), len(tags))
	}
}

// TestStateFetchRefusesWhatIsNotState pins the client's half of the
// trust boundary: a peer answering JSON (a shard from before the state
// representation ignores the parameter) or more than MaxStateBytes is
// an error naming the cause, reached without a retry and without
// entering the cache. The same bound, at MaxJSONBytes, guards every
// JSON body (json: true fetches /api/v1/snapshot as JSON).
func TestStateFetchRefusesWhatIsNotState(t *testing.T) {
	for name, c := range map[string]struct {
		handler http.HandlerFunc
		want    string
		json    bool
	}{
		"oversized-json": {handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("ETag", `"big"`)
			w.Write(bytes.Repeat([]byte{' '}, MaxJSONBytes+1))
		}, want: "exceeds", json: true},
		"json": {handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("ETag", `"old"`)
			json.NewEncoder(w).Encode(v1.Snapshot{WindowHours: 4})
		}, want: "upgrade shards before routers"},
		"oversized": {handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", api.StateMediaType)
			w.Header().Set("ETag", `"big"`)
			w.Write(make([]byte, MaxStateBytes+1))
		}, want: "exceeds"},
	} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			c.handler(w, r)
		}))
		cl, err := New(srv.URL, &Options{Backoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var body []byte
		var etag string
		if c.json {
			var snap *v1.Snapshot
			if snap, err = cl.Snapshot(context.Background(), nil); snap != nil {
				t.Fatalf("%s: got a snapshot from an endless body", name)
			}
		} else {
			body, etag, err = cl.SnapshotState(context.Background())
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || body != nil || etag != "" {
			t.Fatalf("%s: got %d bytes, tag %q, err %v; want an error mentioning %q", name, len(body), etag, err, c.want)
		}
		if hits.Load() != 1 || len(cl.cache) != 0 {
			t.Fatalf("%s: %d requests and %d cache entries, want one request and nothing cached", name, hits.Load(), len(cl.cache))
		}
		srv.Close()
	}
}

// roundTrip is an http.RoundTripper from a function.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestContentLengthIsHeldTo pins the sized body read: the declared
// length sizes the buffer, and a peer whose body is shorter or longer
// than it declared is an error — the caller never gets the state cut or
// padded to the lie. A declaration over the limit is refused unread. The
// short case also runs against a real server, where the lie surfaces as
// the transport's unexpected EOF.
func TestContentLengthIsHeldTo(t *testing.T) {
	state := bytes.Repeat([]byte("state"), 200)
	for name, c := range map[string]struct {
		declared int64
		body     []byte
		want     string // "" = the body, whole
	}{
		"honest":         {declared: int64(len(state)), body: state},
		"undeclared":     {declared: -1, body: state},
		"empty":          {declared: 0, body: []byte{}},
		"short":          {declared: int64(len(state)) + 1, body: state, want: "unexpected EOF"},
		"long":           {declared: int64(len(state)) - 1, body: state, want: "longer than the 999 bytes it declared"},
		"over the limit": {declared: MaxStateBytes + 1, body: state, want: "exceeds"},
	} {
		cl, err := New("http://shard.invalid", &Options{Retries: -1, HTTPClient: &http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, ContentLength: c.declared, Request: r,
				Header: http.Header{"Content-Type": {api.StateMediaType}, "Etag": {`"s"`}},
				Body:   io.NopCloser(bytes.NewReader(c.body))}, nil
		})}})
		if err != nil {
			t.Fatal(err)
		}
		body, etag, err := cl.SnapshotState(context.Background())
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) || body != nil || len(cl.cache) != 0 {
				t.Errorf("%s: %d bytes, %d cached, err %v; want an error mentioning %q", name, len(body), len(cl.cache), err, c.want)
			}
			continue
		}
		if err != nil || !bytes.Equal(body, c.body) || etag != `"s"` {
			t.Errorf("%s: %d bytes, tag %q, err %v; want the whole body", name, len(body), etag, err)
		}
		if c.declared >= 0 && cap(body) != len(body) {
			t.Errorf("%s: a declared body of %d bytes was read into %d", name, len(body), cap(body))
		}
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.StateMediaType)
		w.Header().Set("Content-Length", strconv.Itoa(len(state)+1))
		w.Write(state)
	}))
	defer srv.Close()
	cl, err := New(srv.URL, &Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if body, _, err := cl.SnapshotState(context.Background()); err == nil || body != nil {
		t.Fatalf("short body from a real server: %d bytes, err %v", len(body), err)
	}
}

// TestFullCacheReplacesInPlace pins the eviction rule under ingest, where
// every poll of a panel is a 200 under a newer tag: filing it replaces
// the URL's own validator and costs no other URL its own. The parent of
// this test evicted a random entry whenever the cache was full, so a
// router's polled panels lost their validators to the probe's
// one-URL-per-hour traffic, one per poll.
func TestFullCacheReplacesInPlace(t *testing.T) {
	var version, conditional atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			conditional.Add(1)
		}
		w.Header().Set("Content-Type", api.StateMediaType)
		w.Header().Set("ETag", `"v`+strconv.FormatInt(version.Add(1), 10)+`"`) // never the one asked about
		io.WriteString(w, "state of "+r.URL.RawQuery)
	}))
	defer ts.Close()
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hour := func(i int) time.Time { return entime.StudyStart.Add(time.Duration(i) * time.Hour) }
	for i := 0; i < cacheLimit; i++ {
		if _, _, err := c.QueryState(ctx, hour(i), hour(i+1), ""); err != nil {
			t.Fatal(err)
		}
	}
	for poll := 0; poll < 3*cacheLimit; poll++ {
		if _, _, err := c.QueryState(ctx, hour(0), hour(1), ""); err != nil {
			t.Fatal(err)
		}
	}
	conditional.Store(0)
	for i := 0; i < cacheLimit; i++ {
		if _, _, err := c.QueryState(ctx, hour(i), hour(i+1), ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := conditional.Load(); got != cacheLimit || len(c.cache) != cacheLimit {
		t.Fatalf("after %d polls of one cached URL, %d of the %d cached URLs still revalidate (%d entries)",
			3*cacheLimit, got, cacheLimit, len(c.cache))
	}
}

// TestCacheIsBoundedInBytes pins the cache's second bound: a fake shard
// serves 300 URLs of 1 MiB state bodies, and the bodies the client keeps
// never add up to more than cacheBytes, however many entries would fit;
// the parent of this test kept all 256 it had room for, 256 MiB. A body
// over a sixteenth of the bound is never filed, and revalidates nothing.
func TestCacheIsBoundedInBytes(t *testing.T) {
	var conditional atomic.Int64
	size := atomic.Int64{}
	size.Store(1 << 20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			conditional.Add(1)
		}
		w.Header().Set("Content-Type", api.StateMediaType)
		w.Header().Set("ETag", `"`+r.URL.RawQuery+`"`)
		w.Write(bytes.Repeat([]byte{'s'}, int(size.Load())))
	}))
	defer ts.Close()
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hour := func(i int) time.Time { return entime.StudyStart.Add(time.Duration(i) * time.Hour) }
	retained := func() (n int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, e := range c.cache {
			n += len(e.body)
		}
		if n != c.cached {
			t.Fatalf("cache accounts %d bytes for bodies of %d", c.cached, n)
		}
		return n
	}
	for i := 0; i < 300; i++ {
		if _, _, err := c.QueryState(ctx, hour(i), hour(i+1), ""); err != nil {
			t.Fatal(err)
		}
		if n := retained(); n > cacheBytes {
			t.Fatalf("after %d bodies of 1 MiB the cache holds %d bytes, over its bound of %d", i+1, n, cacheBytes)
		}
	}
	if n := len(c.cache); n != cacheBytes/(1<<20) {
		t.Fatalf("%d entries of 1 MiB under a bound of %d bytes", n, cacheBytes)
	}
	size.Store(cacheBytes/16 + 1)
	for i := 0; i < 2; i++ {
		if _, _, err := c.QueryState(ctx, hour(-2), hour(-1), ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := conditional.Load(); got != 0 {
		t.Fatalf("a body over a sixteenth of the bound was filed: %d conditional requests", got)
	}
}
