package api

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

func testCfg() streaming.Config {
	return streaming.Config{WindowHours: 48, TopK: 5}
}

// keptRecord fabricates a record the paper's filter keeps, landing in
// hour h of the study window.
func keptRecord(h, client int, bytes uint64) netflow.Record {
	f := core.DefaultFilter()
	at := entime.StudyStart.Add(time.Duration(h) * time.Hour)
	return netflow.Record{
		Key: netflow.Key{
			Src:     f.ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{100, 64, byte(client >> 8), byte(client)}),
			SrcPort: netflow.PortHTTPS,
			DstPort: uint16(50000 + client%1000),
			Proto:   netflow.ProtoTCP,
		},
		Packets:  5,
		Bytes:    bytes,
		First:    at,
		Last:     at.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

// slowHistory is a store whose snapshot takes delay, for the timeout
// tests.
type slowHistory struct {
	*store.Store
	delay time.Duration
}

func (h slowHistory) Snapshot() *streaming.Snapshot {
	time.Sleep(h.delay)
	return h.Store.Snapshot()
}

// sampleServer builds a server over sampleStore(t, shards).
func sampleServer(t *testing.T, shards int) *httptest.Server {
	t.Helper()
	s, err := New(Config{History: sampleStore(t, shards)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// storeServer builds a durable store with three checkpointed hours 0-3
// plus a live tail at hours 30-31, and a server over it.
func storeServer(t testing.TB) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for h := 0; h < 4; h++ {
		if err := st.Append([]netflow.Record{keptRecord(h, h, uint64(100+h))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{30, 31} {
		if err := st.Append([]netflow.Record{keptRecord(h, h, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return st, ts
}

// sampleStore appends a sample of kept and dropped records to a fresh
// store, dealt round-robin into shards parts: every part but the last
// becomes a checkpoint frame, the last stays the live tail. Any shard
// count holds the same records, folded along different paths, so
// worker-count invariance is testable at the HTTP layer.
func sampleStore(t testing.TB, shards int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: testCfg(), Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	parts := make([][]netflow.Record, shards)
	for i := 0; i < 400; i++ {
		// client spreads over 7 distinct /24s so the leaderboard has rows.
		r := keptRecord(i%40, (i%7)*256+i, uint64(400+i))
		dropped := r
		dropped.SrcPort = 80
		parts[i%shards] = append(parts[i%shards], r, dropped)
	}
	for i, part := range parts {
		if err := st.Append(part); err != nil {
			t.Fatal(err)
		}
		if i < shards-1 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// get runs one GET with optional extra headers and returns the response
// plus its full body.
func get(t testing.TB, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	// Disable the transport's transparent gzip so tests see the wire
	// encoding as a CDN would.
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// decodeError requires the structured envelope and returns it.
func decodeError(t *testing.T, body []byte) *v1.Error {
	t.Helper()
	var env v1.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("body is not an error envelope: %v %q", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope misses code or message: %+v", env.Error)
	}
	return env.Error
}

// TestErrorEnvelopeEveryFailurePath walks each v1 failure mode and
// requires the {code, message, detail} envelope shape.
func TestErrorEnvelopeEveryFailurePath(t *testing.T) {
	ts := sampleServer(t, 1)
	cases := []struct {
		name   string
		method string
		path   string
		status int
		code   string
	}{
		{"bad fields", http.MethodGet, "/api/v1/snapshot?fields=bogus", http.StatusBadRequest, v1.CodeBadRequest},
		{"bad top", http.MethodGet, "/api/v1/snapshot?top=banana", http.StatusBadRequest, v1.CodeBadRequest},
		{"negative top", http.MethodGet, "/api/v1/snapshot?top=-1", http.StatusBadRequest, v1.CodeBadRequest},
		{"unknown endpoint", http.MethodGet, "/api/v1/nope", http.StatusNotFound, v1.CodeNotFound},
		{"post", http.MethodPost, "/api/v1/snapshot", http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed},
		{"delete health", http.MethodDelete, "/api/v1/health", http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if e := decodeError(t, body); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
		if tc.status == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("%s: Allow header %q", tc.name, resp.Header.Get("Allow"))
		}
	}

	// The pre-v1 paths are gone, on a collector and on a router: the mux's
	// plain 404, like any path that never existed.
	router := fanServer(t, &fakeFanout{shards: 1, res: FanResult{Snapshot: emptySnap()}})
	_, sts := storeServer(t)
	for _, path := range []string{"/snapshot", "/query", "/healthz", "/never-existed"} {
		if resp, _ := get(t, sts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on a collector: %d, want 404", path, resp.StatusCode)
		}
		if w := fanGet(t, router, path, nil); w.Code != http.StatusNotFound {
			t.Errorf("%s on a router: %d, want 404", path, w.Code)
		}
	}

	// Bad time bounds on a store-backed server.
	resp, body := get(t, sts.URL+"/api/v1/query?from=notatime", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Code != v1.CodeBadRequest || !strings.Contains(e.Detail, "RFC 3339") {
		t.Fatalf("bad from envelope: %+v", e)
	}
}

// TestETagRoundTrip pins the conditional-GET contract on both cacheable
// endpoints: a second conditional GET returns 304 with zero body bytes;
// a frames-only query keeps its ETag across out-of-range live appends
// and loses it at the next checkpoint.
func TestETagRoundTrip(t *testing.T) {
	st, ts := storeServer(t)

	origin := entime.StudyStart
	queryURL := fmt.Sprintf("%s/api/v1/query?from=%d&to=%d",
		ts.URL, origin.Unix(), origin.Add(4*time.Hour).Unix())

	resp, body := get(t, queryURL, nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("first query: %d %q", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("query carries no ETag")
	}

	resp, body = get(t, queryURL, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional query: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	// A 304 carries the Cache-Control, ETag and Vary its 200 would
	// (RFC 9110 §15.4.5).
	if resp.Header.Get("Vary") != "Accept-Encoding" || resp.Header.Get("ETag") != etag || resp.Header.Get("Cache-Control") != "no-cache" {
		t.Fatalf("304 headers: Vary %q, ETag %q, Cache-Control %q", resp.Header.Get("Vary"), resp.Header.Get("ETag"), resp.Header.Get("Cache-Control"))
	}

	// Live ingest outside the queried range does not invalidate.
	if err := st.Append([]netflow.Record{keptRecord(31, 9, 100)}); err != nil {
		t.Fatal(err)
	}
	if resp, _ = get(t, queryURL, map[string]string{"If-None-Match": etag}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("out-of-range append broke the ETag: status %d", resp.StatusCode)
	}

	// The next checkpoint advances the store generation: full 200 again,
	// new ETag.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, queryURL, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("post-checkpoint conditional query: %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("checkpoint did not change the ETag")
	}

	// /api/v1/snapshot invalidates on any ingest.
	resp, _ = get(t, ts.URL+"/api/v1/snapshot", nil)
	snapTag := resp.Header.Get("ETag")
	if resp, _ = get(t, ts.URL+"/api/v1/snapshot", map[string]string{"If-None-Match": snapTag}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("snapshot conditional GET: status %d", resp.StatusCode)
	}
	if err := st.Append([]netflow.Record{keptRecord(31, 10, 100)}); err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, ts.URL+"/api/v1/snapshot", map[string]string{"If-None-Match": snapTag})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == snapTag {
		t.Fatalf("ingest did not invalidate the snapshot ETag: %d %s", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// Different params, different ETags.
	resp, _ = get(t, ts.URL+"/api/v1/snapshot?fields=hourly", nil)
	if resp.Header.Get("ETag") == snapTag {
		t.Fatal("field selection shares the full snapshot's ETag")
	}
}

// TestFieldSelectionSubsets requires each ?fields= subset to equal the
// matching slice of the full snapshot response.
func TestFieldSelectionSubsets(t *testing.T) {
	ts := sampleServer(t, 2)
	_, fullBody := get(t, ts.URL+"/api/v1/snapshot", nil)
	var full map[string]json.RawMessage
	if err := json.Unmarshal(fullBody, &full); err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{
		"hourly":    {"hours", "series_start"},
		"filters":   {"census"},
		"prefixes":  {"top_prefixes"},
		"districts": {},
		"spikes":    {},
	}
	allKeys := map[string]bool{"hours": true, "census": true, "top_prefixes": true, "spikes": true, "districts": true}
	for field, keys := range sections {
		_, body := get(t, ts.URL+"/api/v1/snapshot?fields="+field, nil)
		var sub map[string]json.RawMessage
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if string(sub[key]) != string(full[key]) {
				t.Errorf("fields=%s: %q differs from the full snapshot's", field, key)
			}
		}
		// No unselected aggregate section leaks in.
		for key := range allKeys {
			selected := false
			for _, k := range keys {
				if k == key {
					selected = true
				}
			}
			if _, ok := sub[key]; ok && !selected {
				t.Errorf("fields=%s leaked %q", field, key)
			}
		}
	}

	// top=N truncates the leaderboard to the leading ranked entries.
	var fullSnap v1.Snapshot
	if err := json.Unmarshal(fullBody, &fullSnap); err != nil {
		t.Fatal(err)
	}
	if len(fullSnap.TopPrefixes) < 3 {
		t.Fatalf("sample has %d prefixes, want ≥3", len(fullSnap.TopPrefixes))
	}
	_, topBody := get(t, ts.URL+"/api/v1/snapshot?top=2", nil)
	var topSnap v1.Snapshot
	if err := json.Unmarshal(topBody, &topSnap); err != nil {
		t.Fatal(err)
	}
	if len(topSnap.TopPrefixes) != 2 ||
		topSnap.TopPrefixes[0] != fullSnap.TopPrefixes[0] ||
		topSnap.TopPrefixes[1] != fullSnap.TopPrefixes[1] {
		t.Fatalf("top=2 leaderboard %+v is not the leading slice of %+v", topSnap.TopPrefixes, fullSnap.TopPrefixes)
	}
	if len(topBody) >= len(fullBody) {
		t.Fatal("top truncation did not shrink the payload")
	}
}

// TestWorkerCountInvariance requires byte-identical API responses from a
// store holding the records in one tail and one holding them in three
// frames and a tail.
func TestWorkerCountInvariance(t *testing.T) {
	one := sampleServer(t, 1)
	four := sampleServer(t, 4)
	for _, path := range []string{
		"/api/v1/snapshot",
		"/api/v1/snapshot?fields=hourly,prefixes&top=3",
		"/api/v1/snapshot?pretty=1",
	} {
		_, a := get(t, one.URL+path, nil)
		_, b := get(t, four.URL+path, nil)
		if string(a) != string(b) {
			t.Errorf("%s differs between 1 and 4 workers:\n %.200s\n %.200s", path, a, b)
		}
	}
}

// TestCompactDefaultPrettyOptIn pins the satellite fix: compact JSON by
// default, indentation only under ?pretty=1, and the pretty body is
// strictly larger.
func TestCompactDefaultPrettyOptIn(t *testing.T) {
	ts := sampleServer(t, 2)
	_, compact := get(t, ts.URL+"/api/v1/snapshot", nil)
	if strings.Contains(string(compact), "\n  \"") {
		t.Fatal("default response is indented")
	}
	if !strings.HasSuffix(string(compact), "\n") {
		t.Fatal("body is not newline-terminated")
	}
	_, pretty := get(t, ts.URL+"/api/v1/snapshot?pretty=1", nil)
	if !strings.Contains(string(pretty), "\n  \"") {
		t.Fatal("?pretty=1 response is not indented")
	}
	if len(pretty) <= len(compact) {
		t.Fatal("pretty body is not larger than compact")
	}
	var a, b v1.Snapshot
	if err := json.Unmarshal(compact, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty, &b); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("pretty and compact decode differently")
	}
}

// TestEpochBoundIsNotOpenBound pins the stamp() fix: ?to=0 (the unix
// epoch, a valid bound that excludes everything) must not share a cache
// key — and therefore an ETag or a cached body — with an open-ended
// query.
func TestEpochBoundIsNotOpenBound(t *testing.T) {
	_, ts := storeServer(t)
	respOpen, bodyOpen := get(t, ts.URL+"/api/v1/query", nil)
	respEpoch, bodyEpoch := get(t, ts.URL+"/api/v1/query?to=0", nil)
	if respOpen.Header.Get("ETag") == respEpoch.Header.Get("ETag") {
		t.Fatal("open and epoch bounds share an ETag")
	}
	if string(bodyOpen) == string(bodyEpoch) {
		t.Fatal("open and epoch bounds share a body")
	}
	var epoch v1.QueryResponse
	if err := json.Unmarshal(bodyEpoch, &epoch); err != nil {
		t.Fatal(err)
	}
	if len(epoch.Snapshot.Hours) != 0 {
		t.Fatalf("to=epoch returned %d hours, want none", len(epoch.Snapshot.Hours))
	}
	// A validator from one must not 304 the other.
	resp, _ := get(t, ts.URL+"/api/v1/query?to=0",
		map[string]string{"If-None-Match": respOpen.Header.Get("ETag")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-bound ETag validated the epoch-bound query: %d", resp.StatusCode)
	}
}

func TestGzipNegotiation(t *testing.T) {
	ts := sampleServer(t, 2)
	_, plain := get(t, ts.URL+"/api/v1/snapshot", nil)
	if len(plain) < gzipMinBytes {
		t.Fatalf("sample body too small (%dB) to exercise gzip", len(plain))
	}
	resp, compressed := get(t, ts.URL+"/api/v1/snapshot", map[string]string{"Accept-Encoding": "gzip"})
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", resp.Header.Get("Content-Encoding"))
	}
	if resp.Header.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("Vary %q", resp.Header.Get("Vary"))
	}
	gr, err := gzip.NewReader(strings.NewReader(string(compressed)))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if string(inflated) != string(plain) {
		t.Fatal("gzip body differs from identity body")
	}
	if len(compressed) >= len(plain) {
		t.Fatal("gzip did not shrink the body")
	}

	// An explicit q=0 refuses gzip (RFC 9110); identity bytes come back.
	for _, refusal := range []string{"gzip;q=0, identity", "Gzip;q=0"} {
		resp, refused := get(t, ts.URL+"/api/v1/snapshot", map[string]string{"Accept-Encoding": refusal})
		if resp.Header.Get("Content-Encoding") == "gzip" {
			t.Fatalf("%s still got a gzip body", refusal)
		}
		if string(refused) != string(plain) {
			t.Fatalf("identity fallback under %s differs from the plain body", refusal)
		}
	}
	// Content codings are case-insensitive and x-gzip is gzip (RFC 9110
	// §8.4.1).
	for _, accept := range []string{"GZIP", "x-gzip", "identity;q=0.5, Gzip"} {
		resp, body := get(t, ts.URL+"/api/v1/snapshot", map[string]string{"Accept-Encoding": accept})
		if resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: Content-Encoding %q, want gzip", accept, resp.Header.Get("Content-Encoding"))
		}
		gr, err := gzip.NewReader(strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if inflated, err := io.ReadAll(gr); err != nil || string(inflated) != string(plain) {
			t.Fatalf("%s: gzip body differs from identity body (%v)", accept, err)
		}
	}
}

// TestTimeoutEnvelope pins the middleware contract on the slowest
// failure path: a request whose build ends past its deadline still
// carries the structured JSON envelope with Content-Type
// application/json, not the body it built.
func TestTimeoutEnvelope(t *testing.T) {
	s, err := New(Config{
		History: slowHistory{sampleStore(t, 1), 2 * time.Second},
		Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/api/v1/snapshot", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout status %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout Content-Type %q, want application/json", ct)
	}
	if e := decodeError(t, body); e.Code != v1.CodeTimeout {
		t.Fatalf("timeout code %q, want %q", e.Code, v1.CodeTimeout)
	}
}

// gatedHistory is a store whose snapshot waits for gate: started is
// closed when the first one begins, and calls counts them.
type gatedHistory struct {
	*store.Store
	once          sync.Once
	started, gate chan struct{}
	calls         atomic.Int32
}

func (h *gatedHistory) Snapshot() *streaming.Snapshot {
	h.calls.Add(1)
	h.once.Do(func() { close(h.started) })
	<-h.gate
	return h.Store.Snapshot()
}

// TestWaiterAnswersTimeoutAtItsOwnDeadline pins the deadline of a
// request that joins another's fill: it answers the timeout envelope
// when its own deadline passes, not when the fill ends, and starts no
// fill of its own. The fill runs on to the end, past the deadline of
// the request that started it too, which therefore also answers
// timeout; but it was asked for twice, so its body is kept, and the next
// asker is served it without a build.
func TestWaiterAnswersTimeoutAtItsOwnDeadline(t *testing.T) {
	h := &gatedHistory{Store: sampleStore(t, 1), started: make(chan struct{}), gate: make(chan struct{})}
	s, err := New(Config{History: h, Timeout: 100 * time.Millisecond, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	var opened atomic.Bool
	release := sync.OnceFunc(func() { opened.Store(true); close(h.gate) })
	defer release()
	time.AfterFunc(10*time.Second, release) // a waiter that missed its deadline still returns

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/snapshot")
		if err != nil {
			t.Error(err)
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-h.started
	resp, body := get(t, ts.URL+"/api/v1/snapshot", nil)
	if opened.Load() {
		t.Fatal("the waiter answered only once the fill ended")
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("ETag") != "" {
		t.Fatalf("waiter: status %d, ETag %q, want 503 and none", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if e := decodeError(t, body); e.Code != v1.CodeTimeout {
		t.Fatalf("waiter: code %q, want %q", e.Code, v1.CodeTimeout)
	}
	release()
	if status := <-first; status != http.StatusServiceUnavailable {
		t.Fatalf("the request whose fill ended past its deadline: %d, want 503", status)
	}
	resp, body = get(t, ts.URL+"/api/v1/snapshot", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" || len(body) == 0 {
		t.Fatalf("next asker: status %d, ETag %q, %d bytes", resp.StatusCode, resp.Header.Get("ETag"), len(body))
	}
	if calls, builds, hits := h.calls.Load(), s.m.cacheMisses.Value(), s.m.cacheHits.Value(); calls != 1 || builds != 1 || hits != 2 {
		t.Fatalf("three requests cost %d snapshots, %d builds and %d hits, want 1, 1 and 2", calls, builds, hits)
	}
}

func TestHealthDraining(t *testing.T) {
	s, err := New(Config{History: sampleStore(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/api/v1/health", nil)
	var h v1.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != v1.StatusOK {
		t.Fatalf("healthy: %d %+v", resp.StatusCode, h)
	}

	s.SetDraining(true)
	resp, body = get(t, ts.URL+"/api/v1/health", nil)
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != v1.StatusDraining {
		t.Fatalf("draining: %d %+v", resp.StatusCode, h)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := storeServer(t)
	resp, body := get(t, ts.URL+"/api/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var sr v1.StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Store == nil || sr.Store.Frames != 1 {
		t.Fatalf("stats misses store gauges: %q", body)
	}
	if resp.Header.Get("ETag") != "" {
		t.Fatal("stats must stay outside the ETag surface")
	}
}

func TestHeadRequests(t *testing.T) {
	ts := sampleServer(t, 1)
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/api/v1/snapshot", nil)
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD: %d with %dB body", resp.StatusCode, len(body))
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Content-Length") == "0" {
		t.Fatalf("HEAD lost validation headers: %+v", resp.Header)
	}
}
