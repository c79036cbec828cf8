package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// TestShortQueryCostsItsSpanNotTheWindow pins what the flat fold targets
// bought, where a profile would only show it after the fact: a store
// retains a year, so -window-hours is large, and a one-day query must not
// pay for it. On the 364-day fixture the bytes a warm one-day query
// allocates — in the shard's store, and along the whole hop a router
// makes of its answer (the shard's format=state handler, DecodeState,
// Fleet.merge) — are the same at a 9 000-, a 12 000- and a 24 000-hour
// window, and the query allocates under a tenth of what it did when every
// fold target was a ring of WindowHours slots (measured with this loop at
// the parent of this test: 192 kB, 249 kB and 495 kB a query at the three
// windows; now 3 kB at each).
//
// The days asked for are recent ones, whose checkpoint frames compaction
// has not merged yet. An old day folds the one wide frame compaction left
// of its era, and that frame's client table — not its hours, and not the
// window — is then what the query costs, with or without rings.
func TestShortQueryCostsItsSpanNotTheWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	const (
		days          = 364
		queries       = 32
		ringEraBytes  = 249_000
		sameWithinPct = 5
	)
	byDay := tierCapture(days)
	// TotalAlloc counts the whole process, and goroutines earlier tests
	// left behind (idle HTTP connections, timers) allocate when they
	// please: strays only ever add, so the least of three passes over
	// the same days is the query's own.
	bytesPerQuery := func(fn func(pass int, from, to time.Time)) uint64 {
		least := ^uint64(0)
		for pass := 0; pass < 3; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < queries; i++ {
				from := entime.StudyStart.Add(time.Duration(days-40+i) * 24 * time.Hour)
				fn(pass, from, from.Add(24*time.Hour))
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/queries)
		}
		return least
	}

	var query, hop []uint64
	for _, window := range []int{9000, 12000, 24000} {
		nd := newTierNodeWith(t, streaming.Config{WindowHours: window, TopK: 10}, byDay,
			func(*netflow.Record) bool { return true })
		fleet, err := New([]string{nd.ts.URL}, Options{TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		ask := func(_ int, from, to time.Time) {
			res, err := nd.st.QueryResolution(from, to, tier.ResolutionHour)
			if err != nil || res.Frames == 0 || len(res.Snapshot().Hours) == 0 {
				t.Fatalf("window %d: one-day query: %v, %+v", window, err, res)
			}
		}
		route := func(pass int, from, to time.Time) {
			// top means nothing to a state body but is part of the shard's
			// response-cache key: every pass is a miss.
			q := url.Values{"format": {"state"}, "top": {strconv.Itoa(pass + 1)},
				"from": {from.Format(time.RFC3339)}, "to": {to.Format(time.RFC3339)}}
			r := httptest.NewRequest(http.MethodGet, "/api/v1/query?"+q.Encode(), nil)
			w := httptest.NewRecorder()
			nd.srv.ServeHTTP(w, r)
			st, err := api.DecodeState(w.Body.Bytes())
			if err != nil {
				t.Fatalf("window %d: %d %v", window, w.Code, err)
			}
			res, err := fleet.merge([]*part{{st, w.Header().Get("ETag")}}, nil, nil, false, from, to)
			if err != nil || len(res.Snapshot().Hours) == 0 || res.Snapshot().WindowHours != window {
				t.Fatalf("window %d: merged to %+v (%v)", window, res.Snapshot(), err)
			}
		}
		// Warm what a running daemon has warm (the decoded-frame cache,
		// the handler stack) on other ranges: every measured one is new
		// to the shard's response cache.
		bytesPerQuery(func(pass int, from, to time.Time) { route(pass, from.Add(-time.Hour), to.Add(time.Hour)) })
		query = append(query, bytesPerQuery(ask))
		hop = append(hop, bytesPerQuery(route))
	}
	t.Logf("bytes per one-day query at 9 000 / 12 000 / 24 000 window hours: store %v, shard→router hop %v", query, hop)
	for name, got := range map[string][]uint64{"the store query": query, "the shard→router hop": hop} {
		lo, hi := got[0], got[0]
		for _, n := range got {
			lo, hi = min(lo, n), max(hi, n)
		}
		if (hi-lo)*100 > lo*sameWithinPct {
			t.Errorf("%s allocates %v bytes at the three windows: want within %d%% of each other", name, got, sameWithinPct)
		}
	}
	if query[1]*10 > ringEraBytes {
		t.Errorf("a one-day query allocates %d bytes at a 12 000-hour window, want under a tenth of the %d it took with ring targets", query[1], ringEraBytes)
	}
}

// TestRoutedSnapshotPollAllocates pins what a dashboard's snapshot panel
// costs in memory under ingest, through both daemons in one process: an
// append lands between any two polls, so every poll is a miss on shard
// and router — one cut and fold of the year in the store, the state hop,
// DecodeState, Fleet.merge, the render and the stitched gzip. At the
// parent of this test that was 3 797 kB a poll, measured with this loop:
// a fresh -window-hours ring folded under the append lock, 8 800
// HourPoints rendered and un-rendered on the shard and its state copied
// to size, the body rendered to scratch and copied on the router. Then
// 2 724 kB were left: the body and the state each copied into the
// response cache and buffered again by a timeout wrapper around every
// handler. Now a body nobody asks for twice is written from the room it
// was rendered in, and 1 633 kB (43 %) are left, what a poll ships: the
// state (read, decoded), two folds, the router's hour points, the
// client's copy of the gzip. The router's render has since moved out of
// Fleet.merge into the response-cache fill, as on a collector; a poll
// still makes it once, and still reads 1 633 kB. The bar sits just
// above that.
func TestRoutedSnapshotPollAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	const (
		days        = 364
		polls       = 16
		parentBytes = 3_797_000
	)
	nd := newTierNode(t, days, tierCapture(days), func(*netflow.Record) bool { return true })
	router := tierRouter(t, []*node{nd})
	newest := entime.StudyStart.Add((days*24 - 1) * time.Hour)
	client := netip.AddrFrom4([4]byte{10, 200, 0, 1})
	poll := func() {
		if err := nd.st.Append([]netflow.Record{keptRecord(newest, client, 300)}); err != nil {
			t.Fatal(err)
		}
		status, hdr, body := get(t, router.URL+"/api/v1/snapshot", map[string]string{"Accept-Encoding": "gzip"})
		if status != http.StatusOK || hdr.Get("ETag") == "" || len(body) < 50_000 {
			t.Fatalf("routed snapshot: %d, ETag %q, %d bytes", status, hdr.Get("ETag"), len(body))
		}
	}
	for i := 0; i < 3; i++ { // a closed block is kept from its second sighting on
		poll()
	}
	// A collection empties the pools the edge compresses (and, at the
	// parent, renders) out of, and how many fall into sixteen polls is
	// chance: without one the count is the polls' own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for pass := 0; pass < 3; pass++ { // strays only ever add: see TestShortQueryCostsItsSpanNotTheWindow
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < polls; i++ {
			poll()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/polls)
	}
	t.Logf("a routed snapshot poll of %d days allocates %d bytes (parent: %d)", days, least, parentBytes)
	if least*100 > parentBytes*45 {
		t.Errorf("a routed snapshot poll allocates %d bytes, want at most 45%% of the parent's %d", least, parentBytes)
	}
}
