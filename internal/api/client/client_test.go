package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cwatrace/internal/api"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

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

// testServer is a store-backed API server plus a counter of full (200)
// snapshot/query responses, so tests can see the client's 304 cache
// working.
func testServer(t *testing.T) (*store.Store, *httptest.Server, *atomic.Int64) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: streaming.Config{WindowHours: 48, TopK: 5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for h := 0; h < 6; h++ {
		if err := st.Append([]netflow.Record{keptRecord(h, (h%3)*256+h, uint64(200+h))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	var full atomic.Int64
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			full.Add(1)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	ts := httptest.NewServer(counting)
	t.Cleanup(ts.Close)
	return st, ts, &full
}

func TestSnapshotAndQueryTyped(t *testing.T) {
	_, ts, _ := testServer(t)
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	snap, err := c.Snapshot(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Hours) == 0 || snap.Census == nil || snap.Census.Kept != 6 {
		t.Fatalf("snapshot: %+v", snap)
	}

	q, err := c.Query(ctx, entime.StudyStart, entime.StudyStart.Add(3*time.Hour), nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Frames != 1 || len(q.Snapshot.Hours) != 3 {
		t.Fatalf("query: frames=%d hours=%d", q.Frames, len(q.Snapshot.Hours))
	}

	// Field selection travels through the client.
	sub, err := c.Snapshot(ctx, &ReqOpts{Fields: v1.FieldHourly})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub.Hours, snap.Hours) || sub.Census != nil {
		t.Fatalf("fields=hourly: %+v", sub)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store == nil || st.Store.Frames != 1 {
		t.Fatalf("stats: %+v", st)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != v1.StatusOK {
		t.Fatalf("health: %+v %v", h, err)
	}
}

// TestETagCacheServes304 pins the client-side conditional GET: the
// second identical call revalidates, the server answers 304, and the
// client returns the locally cached body.
func TestETagCacheServes304(t *testing.T) {
	st, ts, full := testServer(t)
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	from, to := entime.StudyStart, entime.StudyStart.Add(4*time.Hour)
	first, err := c.Query(ctx, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullAfterFirst := full.Load()
	second, err := c.Query(ctx, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Load() != fullAfterFirst {
		t.Fatalf("second identical query was served a full 200 (%d -> %d)", fullAfterFirst, full.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached decode differs from the original")
	}

	// A checkpoint invalidates: the next call is a full response again
	// with fresh content.
	if err := st.Append([]netflow.Record{keptRecord(1, 900, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	third, err := c.Query(ctx, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Load() == fullAfterFirst {
		t.Fatal("post-checkpoint query still served from cache")
	}
	if reflect.DeepEqual(first, third) {
		t.Fatal("post-checkpoint query returned stale data")
	}
}

func TestRetriesTransientFailures(t *testing.T) {
	_, upstream, _ := testServer(t)
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "temporarily hosed", http.StatusBadGateway)
			return
		}
		resp, err := http.Get(upstream.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write(readAll(t, resp)); err != nil {
			t.Error(err)
		}
	}))
	defer flaky.Close()

	c, err := New(flaky.URL, &Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(context.Background(), nil)
	if err != nil {
		t.Fatalf("after retries: %v", err)
	}
	if len(snap.Hours) == 0 {
		t.Fatal("empty snapshot after retry")
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d hits, want 3", hits.Load())
	}
}

func TestStructuredErrorsSurface(t *testing.T) {
	// The server refuses a resolution it does not know.
	_, ts, _ := testServer(t)
	c, err := New(ts.URL, &Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), time.Time{}, time.Time{}, &ReqOpts{Resolution: "fortnight"})
	var apiErr *v1.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *v1.Error, got %T: %v", err, err)
	}
	if apiErr.Code != v1.CodeBadRequest || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("error: %+v", apiErr)
	}

	// 4xx errors are not retried.
	if _, err := c.QueryBounds(context.Background(), "bogus", "", nil); err == nil {
		t.Fatal("bad bound accepted")
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b = append(b, buf[:n]...)
		if err != nil {
			return b
		}
	}
}

// TestDegraded206DecodesWithoutCaching pins the partial-response
// handling: a 206 body decodes as a success (the typed degraded
// envelope, not an error) and never enters the ETag cache — a later
// 200 must not be answered from, or revalidated against, partial bytes.
func TestDegraded206DecodesWithoutCaching(t *testing.T) {
	degraded := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			t.Errorf("client revalidated against a partial response")
		}
		if degraded {
			w.Header().Set("Cache-Control", "no-store")
			w.WriteHeader(http.StatusPartialContent)
			json.NewEncoder(w).Encode(v1.Snapshot{
				WindowHours: 4,
				Degraded:    &v1.Degraded{MissingShards: []int{1}},
			})
			return
		}
		w.Header().Set("ETag", `"full"`)
		json.NewEncoder(w).Encode(v1.Snapshot{WindowHours: 8})
	}))
	defer srv.Close()

	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(context.Background(), nil)
	if err != nil {
		t.Fatalf("206 should decode, not error: %v", err)
	}
	if len(c.cache) != 0 || snap.Degraded == nil || len(snap.Degraded.MissingShards) != 1 {
		t.Fatalf("degraded fetch: %d cache entries, marker %+v", len(c.cache), snap.Degraded)
	}
	degraded = false
	snap, err = c.Snapshot(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.cache) != 1 || snap.WindowHours != 8 || snap.Degraded != nil {
		t.Fatalf("recovered fetch: %d cache entries, %+v", len(c.cache), snap)
	}
}
