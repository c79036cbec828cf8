package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/api"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// districtCapture is tierCapture the paper's way round (Figure 3): every
// day, traffic from every district, one record each at an hour that moves
// with the district and the day, from a client inside the district's /24.
func districtCapture(days int, prefixes []netip.Prefix) [][]netflow.Record {
	out := make([][]netflow.Record, days)
	for d := range out {
		for i, p := range prefixes {
			a := p.Addr().As4()
			a[3] = byte(1 + (d+i)%200)
			at := entime.StudyStart.Add(time.Duration(d*24+(i*7+d)%24) * time.Hour)
			out[d] = append(out[d], keptRecord(at, netip.AddrFrom4(a), uint64(200+d*i%300)))
		}
	}
	return out
}

// districtShards serves districtCapture(days) from two tier-folding shard
// nodes, partitioned by Owner as a sharded collectord filters its share.
func districtShards(tb testing.TB, days int) []*node {
	tb.Helper()
	model := geo.Germany()
	db, prefixes := testGeoDB(tb, model)
	byDay := districtCapture(days, prefixes)
	cfg := streaming.Config{WindowHours: days*24 + 48, TopK: 10, DB: db, Model: model}
	nodes := make([]*node, 2)
	for i := range nodes {
		nodes[i] = newTierNodeWith(tb, cfg, byDay, func(r *netflow.Record) bool { return Owner(r, db, 2) == i })
	}
	return nodes
}

// question is one query a router fans out.
type question struct {
	name     string
	from, to time.Time
	res      tier.Resolution
}

// lastDays asks for the last n of days whole days at res.
func lastDays(days, n int, res tier.Resolution) question {
	to := entime.StudyStart.Add(time.Duration(days*24) * time.Hour)
	return question{fmt.Sprintf("%dd-%s", n, res), to.Add(-time.Duration(n*24) * time.Hour), to, res}
}

// stateOf records what shard nd sends a router for q.
func stateOf(tb testing.TB, nd *node, q question) (body []byte, etag string) {
	tb.Helper()
	p := url.Values{"format": {"state"}, "from": {q.from.Format(time.RFC3339)}, "to": {q.to.Format(time.RFC3339)}}
	if q.res != tier.ResolutionHour {
		p.Set("resolution", string(q.res))
	}
	w := httptest.NewRecorder()
	nd.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?"+p.Encode(), nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("%s: shard answered %d: %s", q.name, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes(), w.Header().Get("ETag")
}

// routeStates is the router's half of a data fan-out once the shards'
// bytes are in: DecodeState per part, Fleet.merge, and the body render
// into room from the answer's fields, as api's buildAnswer reads them.
func routeStates(f *Fleet, bodies [][]byte, etags []string, q question, room []byte) ([]byte, *api.FanResult, error) {
	parts := make([]*part, len(bodies))
	for i, b := range bodies {
		st, err := api.DecodeState(b)
		if err != nil {
			return nil, nil, err
		}
		parts[i] = &part{st, etags[i]}
	}
	res, err := f.merge(parts, nil, nil, false, q.from, q.to)
	if err != nil {
		return nil, nil, err
	}
	resp := &v1.QueryResponse{From: res.From, To: res.To, Frames: res.Frames, TailIncluded: res.TailIncluded,
		Snapshot: v1.NewSnapshot(res.Snapshot(), v1.AllFields, 0), Resolution: string(res.Resolution), LongHorizon: res.LongHorizon}
	body, _, err := resp.AppendJSON(room[:0], nil)
	return body, res, err
}

// BenchmarkFleetMerge is the router's cost per answer after the fan-out:
// DecodeState of each shard's recorded state, Fleet.merge and the body
// render, for a one-day hour answer (the dashboard's), a 30-day day answer
// and a 364-day hour answer over two shards of a year in which every
// district sends traffic every day. body_B is the rendered body.
func BenchmarkFleetMerge(b *testing.B) {
	const days = 364
	nodes := districtShards(b, days)
	fleet, err := New([]string{nodes[0].ts.URL, nodes[1].ts.URL}, Options{TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []question{lastDays(days, 1, tier.ResolutionHour), lastDays(days, 30, tier.ResolutionDay), lastDays(days, 364, tier.ResolutionHour)} {
		bodies, etags := make([][]byte, len(nodes)), make([]string, len(nodes))
		for i, nd := range nodes {
			bodies[i], etags[i] = stateOf(b, nd, q)
		}
		b.Run(q.name, func(b *testing.B) {
			var room []byte
			b.ReportAllocs()
			for b.Loop() {
				body, _, err := routeStates(fleet, bodies, etags, q, room)
				if err != nil {
					b.Fatal(err)
				}
				room = body
			}
			b.ReportMetric(float64(len(room)), "body_B")
		})
	}
}

// TestRoutedOneDayMergeAllocates pins what the router's merge of a
// dashboard's one-day answer allocates — DecodeState of both shards'
// states and Fleet.merge, the render aside — where every district sent
// traffic that day, as on the paper's first day. When each part's
// district ids were copied into strings off the wire and every fold
// interned them into a map of its own, this loop measured 91 kB and 470
// allocations an answer; once they resolved to the model's index as they
// are read, 47 kB and 59, the merge still rendering the snapshot. Now
// that it ends with the unrendered answer (store.NewQueryResult) and the
// render runs in the response-cache fill, 21 kB and 54. The bars sit
// just above that.
func TestRoutedOneDayMergeAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	const (
		days     = 8
		maxBytes = 24_000
		maxAlloc = 58
	)
	nodes := districtShards(t, days)
	fleet, err := New([]string{nodes[0].ts.URL, nodes[1].ts.URL}, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := lastDays(days, 1, tier.ResolutionHour)
	bodies, etags := make([][]byte, len(nodes)), make([]string, len(nodes))
	for i, nd := range nodes {
		bodies[i], etags[i] = stateOf(t, nd, q)
	}
	parts := make([]*part, len(bodies))
	merge := func() *api.FanResult {
		for i, b := range bodies {
			st, err := api.DecodeState(b)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = &part{st, etags[i]}
		}
		res, err := fleet.merge(parts, nil, nil, false, q.from, q.to)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if n := len(merge().Snapshot().Districts); n != len(geo.Germany().Districts()) {
		t.Fatalf("the merged day lists %d districts, want every one", n)
	}
	allocs := testing.AllocsPerRun(20, func() { merge() })
	least := ^uint64(0)
	for pass := 0; pass < 3; pass++ { // strays only ever add: see TestShortQueryCostsItsSpanNotTheWindow
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			merge()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/20)
	}
	t.Logf("the router's merge of a one-day answer over %d districts: %d bytes, %.0f allocations", len(geo.Germany().Districts()), least, allocs)
	if least > maxBytes || allocs > maxAlloc {
		t.Errorf("the merge allocates %d bytes in %.0f allocations, want at most %d and %d", least, allocs, maxBytes, maxAlloc)
	}
}

// TestRouterKeepsNoDistrictTable is the bound on what a shard can make a
// router hold: a shard whose state names 100 000 district ids the model
// does not know gets them listed, in id order, between the model's own,
// and the router keeps nothing of them once the answer is rendered. The
// one district table a router holds is the model's, 401 ids, fixed when
// the process starts; the ids a merge meets outside it are numbered by that
// merge and die with it. So past the body the client caches for
// revalidation, one such answer leaves under 1 MB more on the heap than
// before it — the ids alone take 1.7 MB on the wire and more as strings and
// a map — and a second one nothing.
func TestRouterKeepsNoDistrictTable(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under -race measure the detector")
	}
	const unknown = 100_000
	// The rows are written into the state by hand, after the ones
	// streaming encodes: nothing in this process meets the unknown ids
	// before the router does.
	rows := []byte{}
	for i := 0; i < unknown; i++ {
		rows = binary.BigEndian.AppendUint64(fmt.Appendf(append(rows, 0, 7), "%07d", (i*7919)%unknown), 1)
	}
	body := stateEnvelope(t, &streaming.Snapshot{Origin: entime.StudyStart, WindowHours: 48, Located: unknown + 4,
		Hours:     []streaming.HourPoint{{Hour: 3, Time: entime.StudyStart.Add(3 * time.Hour), Flows: unknown + 4, Bytes: 1}},
		Districts: []streaming.DistrictCount{{ID: "BE-000", Flows: 2}, {ID: "NW-000", Flows: 2}}}, unknown, rows)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") == `"one"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"one"`)
		w.Header().Set("Content-Type", api.StateMediaType)
		w.Write(body)
	}))
	defer shard.Close()
	fleet, err := New([]string{shard.URL}, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	from, to := entime.StudyStart, entime.StudyStart.Add(24*time.Hour)
	ask := func() {
		res, err := fleet.Query(context.Background(), from, to, tier.ResolutionHour)
		if err != nil || len(res.Missing) > 0 {
			t.Fatalf("routed answer: %v, missing %+v", err, res.Missing)
		}
		ds := res.Snapshot().Districts
		if len(ds) != unknown+2 || !slices.IsSortedFunc(ds, func(a, b streaming.DistrictCount) int { return strings.Compare(a.ID, b.ID) }) {
			t.Fatalf("%d districts listed, sorted %t", len(ds), slices.IsSortedFunc(ds, func(a, b streaming.DistrictCount) int { return strings.Compare(a.ID, b.ID) }))
		}
		if berlin := ds[unknown]; berlin.ID != "BE-000" || berlin.Name != "Berlin" || ds[0].ID != "0000000" || ds[0].Name != "" {
			t.Fatalf("rows %+v … %+v", ds[0], berlin)
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	ask()
	first := heap()
	ask()
	second := heap()
	t.Logf("heap %d B before, %d after one answer naming %d unknown ids (body %d B), %d after a second", before, first, unknown, len(body), second)
	if grew := int64(first) - int64(before) - int64(len(body)); grew > 1<<20 {
		t.Errorf("one answer left %d bytes past its cached body on the heap", grew)
	}
	if grew := int64(second) - int64(first); grew > 256<<10 {
		t.Errorf("a second answer left %d more bytes on the heap", grew)
	}
}

// stateEnvelope wraps snap's state, with n more encoded district rows
// appended to its rollup, in the shard-state header (layout in
// internal/api/state.go) as an exact answer of no frames.
func stateEnvelope(t *testing.T, snap *streaming.Snapshot, n int, rows []byte) []byte {
	t.Helper()
	state, err := streaming.FromSnapshot(snap).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The rollup is the state's tail: its flag, its row count, its rows.
	at := len(state) - 4 - len(snap.Districts)*(2+6+8)
	binary.BigEndian.PutUint32(state[at:], uint32(len(snap.Districts)+n))
	state = append(state, rows...)
	buf := append(make([]byte, 44), state...)
	copy(buf, "CWSS")
	buf[4] = 1
	binary.BigEndian.PutUint64(buf[8:], uint64(snap.Origin.UnixNano()))
	binary.BigEndian.PutUint32(buf[32:], uint32(len(state)))
	crc := crc32.Update(0, crc32.IEEETable, buf[:40])
	binary.BigEndian.PutUint32(buf[40:], crc32.Update(crc, crc32.IEEETable, buf[44:]))
	return buf
}
