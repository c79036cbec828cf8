// The cluster conformance suite: proves that a queryrouterd fronting N
// shard collectors is indistinguishable from one collector holding the
// union — byte-identical bodies for every endpoint and field selection
// (TestClusterByteIdentity), an honest partial-failure envelope when a
// shard dies (TestClusterDegradation), and composite-validator
// semantics that invalidate exactly when a shard's state generation
// moves (TestClusterCompositeETagSemantics).
package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/netip"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// testGeoDB maps one distinct client /24 to every district through the
// router-ground-truth path, so geolocation is exact and deterministic.
func testGeoDB(t testing.TB, model *geo.Model) (*geodb.DB, []netip.Prefix) {
	t.Helper()
	districts := model.Districts()
	infos := make([]geodb.PrefixInfo, len(districts))
	prefixes := make([]netip.Prefix, len(districts))
	for i, d := range districts {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + i>>8), byte(i), 0}), 24)
		infos[i] = geodb.PrefixInfo{Prefix: p, RouterID: fmt.Sprintf("R%03d", i), DistrictID: d.ID, ISPName: "Blau"}
		prefixes[i] = p
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, prefixes
}

// keptRecord builds one record the paper's filter keeps: partner-ISP
// server to client on TCP/443.
func keptRecord(ts time.Time, client netip.Addr, byteCount uint64) netflow.Record {
	f := core.DefaultFilter()
	return netflow.Record{
		Key: netflow.Key{
			Src:     f.ServerPrefixes[0].Addr(),
			Dst:     client,
			SrcPort: netflow.PortHTTPS,
			DstPort: 50000,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  5,
		Bytes:    byteCount,
		First:    ts,
		Last:     ts.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

// buildCapture synthesizes the shared test capture: located traffic
// over ~1/7 of the districts across 48 hours, filter-dropped flows,
// clients outside the geo database (hash-sharded), and late records.
func buildCapture(prefixes []netip.Prefix) []netflow.Record {
	var recs []netflow.Record
	for d := 0; d < len(prefixes); d += 7 {
		a4 := prefixes[d].Addr().As4()
		a4[3] = byte(9 + d%17)
		client := netip.AddrFrom4(a4)
		for h := 0; h < 2+d%5; h++ {
			recs = append(recs, keptRecord(entime.StudyStart.Add(time.Duration((d+h*5)%48)*time.Hour), client, uint64(200+d*3+h)))
		}
	}
	for i := 0; i < 12; i++ {
		// Filter-dropped: wrong server port.
		bad := keptRecord(entime.StudyStart.Add(time.Duration(i%6)*time.Hour), netip.AddrFrom4([4]byte{10, 1, byte(i), 8}), 60)
		bad.SrcPort = 80
		recs = append(recs, bad)
		// Kept but unmapped client prefix: owned via the /24 hash.
		recs = append(recs, keptRecord(entime.StudyStart.Add(time.Duration(10+i%8)*time.Hour),
			netip.AddrFrom4([4]byte{172, 16, byte(i), 33}), uint64(90+i)))
		// Late: predates the study origin.
		recs = append(recs, keptRecord(entime.StudyStart.Add(-time.Duration(1+i%3)*time.Hour),
			netip.AddrFrom4([4]byte{10, 2, byte(i), 7}), 40))
	}
	return recs
}

// node is one shard collector: a durable store fronted by the v1 API.
type node struct {
	st  *store.Store
	srv *api.Server
	ts  *httptest.Server
}

// newNode opens a store in a temp dir, appends recs in batches, and
// serves it.
func newNode(t *testing.T, acfg streaming.Config, recs []netflow.Record) *node {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: acfg, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	appendAll(t, st, recs)
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &node{st: st, srv: srv, ts: ts}
}

func appendAll(t *testing.T, st *store.Store, recs []netflow.Record) {
	t.Helper()
	const batch = 37
	for i := 0; i < len(recs); i += batch {
		end := i + batch
		if end > len(recs) {
			end = len(recs)
		}
		if err := st.Append(recs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// partition splits the capture by the cluster's ownership function.
func partition(recs []netflow.Record, db *geodb.DB, n int) [][]netflow.Record {
	parts := make([][]netflow.Record, n)
	for _, r := range recs {
		o := Owner(&r, db, n)
		parts[o] = append(parts[o], r)
	}
	return parts
}

// newRouter serves a Fleet over the nodes' addresses.
func newRouter(t *testing.T, nodes []*node, topK int) *httptest.Server {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.ts.URL
	}
	fleet, err := New(addrs, Options{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(api.Config{Fanout: fleet})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// get fetches url and returns status, headers and body.
func get(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	return do(t, http.MethodGet, url, hdr)
}

// do is get for any method.
func do(t *testing.T, method, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// paramSets enumerates every field-selection subset (all 31 non-empty
// combinations plus the default), each with and without truncation.
func paramSets() []string {
	var out []string
	for fs := v1.FieldSet(1); fs <= v1.AllFields; fs++ {
		out = append(out, "fields="+fs.String())
	}
	out = append(out, "")
	n := len(out)
	for i := 0; i < n; i++ {
		q := out[i]
		if q != "" {
			q += "&"
		}
		out = append(out, q+"top=3")
	}
	return out
}

// TestShardPartitionTotality pins the ownership function: every record
// — located, unmapped, malformed — has exactly one owner, and the
// Filter closures reproduce that partition disjointly and exhaustively.
func TestShardPartitionTotality(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	recs := buildCapture(prefixes)
	recs = append(recs, netflow.Record{}) // invalid addresses still owned

	for _, n := range []int{1, 2, 3, 4, 7} {
		filters := make([]func(*netflow.Record) bool, n)
		for i := 0; i < n; i++ {
			filters[i] = Assignment{Index: i, Count: n}.Filter(db)
		}
		if n == 1 {
			if filters[0] != nil {
				t.Fatalf("n=1: Filter should be nil (no-op)")
			}
			continue
		}
		for ri := range recs {
			o := Owner(&recs[ri], db, n)
			if o < 0 || o >= n {
				t.Fatalf("record %d: owner %d outside [0,%d)", ri, o, n)
			}
			owners := 0
			for i, f := range filters {
				if f(&recs[ri]) {
					owners++
					if i != o {
						t.Fatalf("record %d: filter %d keeps a record Owner assigns to %d", ri, i, o)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("record %d: kept by %d shards, want exactly 1", ri, owners)
			}
		}
	}

	if _, err := ParseAssignment("3/3"); err == nil {
		t.Fatal("ParseAssignment(3/3) should fail: index out of range")
	}
	if _, err := ParseAssignment("nope"); err == nil {
		t.Fatal("ParseAssignment(nope) should fail")
	}
	if a, err := ParseAssignment("2/5"); err != nil || a.Index != 2 || a.Count != 5 {
		t.Fatalf("ParseAssignment(2/5) = %+v, %v", a, err)
	}
}

// TestClusterByteIdentity is the headline conformance check: for fleet
// sizes 1, 2 and 4, every router response — both endpoints, all 32
// field selections, with and without top-K truncation, full and
// sub-range queries — is byte-identical to the same request against a
// single collector holding the union of the capture. Two independent
// routers over the same fleet also agree on the ETag, and the composite
// validator revalidates (If-None-Match -> 304).
func TestClusterByteIdentity(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	recs := buildCapture(prefixes)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}

	union := newNode(t, acfg, recs)

	sub := fmt.Sprintf("from=%d&to=%d",
		entime.StudyStart.Add(5*time.Hour).Unix(), entime.StudyStart.Add(30*time.Hour).Unix())
	endpoints := []string{
		"/api/v1/snapshot",
		"/api/v1/query",
		"/api/v1/query?" + sub,
	}
	params := paramSets()

	for _, n := range []int{1, 2, 4} {
		parts := partition(recs, db, n)
		nodes := make([]*node, n)
		total := 0
		for i := range nodes {
			nodes[i] = newNode(t, acfg, parts[i])
			total += len(parts[i])
		}
		if total != len(recs) {
			t.Fatalf("n=%d: partition lost records: %d != %d", n, total, len(recs))
		}
		router := newRouter(t, nodes, acfg.TopK)
		routerB := newRouter(t, nodes, acfg.TopK)

		for _, ep := range endpoints {
			for _, p := range params {
				url := ep
				if p != "" {
					if strings.Contains(ep, "?") {
						url += "&" + p
					} else {
						url += "?" + p
					}
				}
				wantStatus, _, want := get(t, union.ts.URL+url, nil)
				gotStatus, gotHdr, got := get(t, router.URL+url, nil)
				if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
					t.Fatalf("n=%d %s: status union=%d router=%d", n, url, wantStatus, gotStatus)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d %s: router body differs from union\n got: %.400s\nwant: %.400s", n, url, got, want)
				}
				etag := gotHdr.Get("ETag")
				if etag == "" {
					t.Fatalf("n=%d %s: router response has no ETag", n, url)
				}
				// A second, independent router over the same fleet emits the
				// same validator; both 304 it.
				_, hdrB, _ := get(t, routerB.URL+url, nil)
				if hdrB.Get("ETag") != etag {
					t.Fatalf("n=%d %s: two routers over one fleet disagree on ETag: %q != %q",
						n, url, etag, hdrB.Get("ETag"))
				}
				st304, hdr304, body304 := get(t, router.URL+url, map[string]string{"If-None-Match": etag})
				if st304 != http.StatusNotModified || len(body304) != 0 {
					t.Fatalf("n=%d %s: If-None-Match got %d with %d body bytes, want bodyless 304", n, url, st304, len(body304))
				}
				if hdr304.Get("Vary") != gotHdr.Get("Vary") || hdr304.Get("Vary") != "Accept-Encoding" {
					t.Fatalf("n=%d %s: 304 Vary %q, its 200 sent %q", n, url, hdr304.Get("Vary"), gotHdr.Get("Vary"))
				}
			}
		}

		// Stats are additive, not byte-identical (WAL framing differs by
		// batch split): the summed census-bearing store gauges must match
		// the union's record counts.
		var unionStats, clusterStats v1.StatsResponse
		_, _, ub := get(t, union.ts.URL+"/api/v1/stats", nil)
		_, _, cb := get(t, router.URL+"/api/v1/stats", nil)
		if err := json.Unmarshal(ub, &unionStats); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(cb, &clusterStats); err != nil {
			t.Fatal(err)
		}
		if unionStats.Store == nil || clusterStats.Store == nil {
			t.Fatalf("n=%d: missing store gauges in stats", n)
		}
		if clusterStats.Store.AppendedRecords != unionStats.Store.AppendedRecords {
			t.Fatalf("n=%d: cluster appended %d records, union %d",
				n, clusterStats.Store.AppendedRecords, unionStats.Store.AppendedRecords)
		}
		if clusterStats.Degraded != nil {
			t.Fatalf("n=%d: healthy cluster stats marked degraded: %+v", n, clusterStats.Degraded)
		}

		// Health: a healthy fleet is plain ok, indistinguishable from a
		// single node.
		hst, _, hb := get(t, router.URL+"/api/v1/health", nil)
		if hst != http.StatusOK || !bytes.Contains(hb, []byte(`"status":"ok"`)) {
			t.Fatalf("n=%d: health = %d %s", n, hst, hb)
		}
	}
}

// TestClusterDegradation kills one shard of three and pins the partial
// contract: HTTP 206, a degraded marker naming the missing shard,
// Cache-Control: no-store, no ETag, and totals equal to the live
// shards' sum (never the silently-wrong full total, never an error).
// With every shard down the router serves 503 unavailable; a restarted
// shard restores byte-identical complete responses.
func TestClusterDegradation(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	recs := buildCapture(prefixes)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}

	const n = 3
	parts := partition(recs, db, n)
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = newNode(t, acfg, parts[i])
	}
	router := newRouter(t, nodes, acfg.TopK)

	healthyStatus, healthyHdr, healthyBody := get(t, router.URL+"/api/v1/snapshot", nil)
	if healthyStatus != http.StatusOK || healthyHdr.Get("ETag") == "" {
		t.Fatalf("healthy cluster: %d, etag %q", healthyStatus, healthyHdr.Get("ETag"))
	}
	var healthySnap v1.Snapshot
	if err := json.Unmarshal(healthyBody, &healthySnap); err != nil {
		t.Fatal(err)
	}

	// Remember node 1's address, then kill it.
	killedAddr := nodes[1].ts.Listener.Addr().String()
	nodes[1].ts.Close()

	status, hdr, body := get(t, router.URL+"/api/v1/snapshot", nil)
	if status != http.StatusPartialContent {
		t.Fatalf("one shard down: status %d, want 206", status)
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("degraded Cache-Control = %q, want no-store", cc)
	}
	if etag := hdr.Get("ETag"); etag != "" {
		t.Fatalf("degraded response carries ETag %q; partial bodies must not validate", etag)
	}
	var snap v1.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Degraded == nil || len(snap.Degraded.MissingShards) != 1 || snap.Degraded.MissingShards[0] != 1 {
		t.Fatalf("degraded marker = %+v, want missing_shards [1]", snap.Degraded)
	}
	// The partial total is the live shards' exact sum — shard 1's kept
	// records are absent, not fabricated.
	liveKept := 0
	for i, nd := range nodes {
		if i == 1 {
			continue
		}
		liveKept += nd.st.Snapshot().Census.Kept
	}
	if snap.Census == nil || snap.Census.Kept != liveKept {
		t.Fatalf("degraded census kept = %v, want live-shard sum %d", snap.Census, liveKept)
	}
	if snap.Census.Kept == healthySnap.Census.Kept {
		t.Fatalf("degraded census equals the full total (%d): the kill did not remove data, test is vacuous", liveKept)
	}
	// A 206 query body is the body of a router over the surviving shards
	// alone, the degraded marker added as its last member: one merge, one
	// rendering, whether shards are missing or were never there.
	survivors := newRouter(t, []*node{nodes[0], nodes[2]}, acfg.TopK)
	for _, q := range []string{"", "?resolution=day", "?fields=hourly,prefixes&top=3"} {
		status, hdr, got := get(t, router.URL+"/api/v1/query"+q, nil)
		wantStatus, _, want := get(t, survivors.URL+"/api/v1/query"+q, nil)
		marker := bytes.LastIndex(got, []byte(`,"degraded":{"missing_shards":[1],`))
		if status != http.StatusPartialContent || hdr.Get("Cache-Control") != "no-store" || hdr.Get("ETag") != "" ||
			wantStatus != http.StatusOK || marker < 0 || string(got[:marker])+"}\n" != string(want) {
			t.Fatalf("degraded query%s: %d %q %q\n%s\nwant, the marker aside, the survivors' %d\n%s",
				q, status, hdr.Get("Cache-Control"), hdr.Get("ETag"), got, wantStatus, want)
		}
	}

	// Health: serving but degraded (200), naming the shard.
	hst, _, hb := get(t, router.URL+"/api/v1/health", nil)
	var health v1.HealthResponse
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if hst != http.StatusOK || health.Status != v1.StatusDegraded ||
		health.Degraded == nil || len(health.Degraded.MissingShards) != 1 || health.Degraded.MissingShards[0] != 1 {
		t.Fatalf("health with one shard down = %d %+v", hst, health)
	}

	// Stats: 206 + marker, sum over live shards only.
	sst, sh, sb := get(t, router.URL+"/api/v1/stats", nil)
	var stats v1.StatsResponse
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if sst != http.StatusPartialContent || sh.Get("Cache-Control") != "no-store" || stats.Degraded == nil {
		t.Fatalf("degraded stats = %d %q %+v", sst, sh.Get("Cache-Control"), stats.Degraded)
	}

	// All shards down: an explicit 503, not an empty 200.
	nodes[0].ts.Close()
	nodes[2].ts.Close()
	ast, _, ab := get(t, router.URL+"/api/v1/snapshot", nil)
	var envelope v1.ErrorResponse
	if err := json.Unmarshal(ab, &envelope); err != nil {
		t.Fatal(err)
	}
	if ast != http.StatusServiceUnavailable || envelope.Error == nil || envelope.Error.Code != v1.CodeUnavailable {
		t.Fatalf("all shards down = %d %s", ast, ab)
	}
	hst, _, hb = get(t, router.URL+"/api/v1/health", nil)
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if hst != http.StatusServiceUnavailable || health.Status != v1.StatusDegraded {
		t.Fatalf("health with all shards down = %d %+v", hst, health)
	}

	// Recovery: rebind every node on its old port (the router's node
	// list is fixed; a restarted collectord comes back at the same
	// address) and verify complete responses return, byte-identical to
	// the pre-kill body.
	for i, nd := range nodes {
		addr := nd.ts.Listener.Addr().String()
		if i == 1 {
			addr = killedAddr
		}
		rebindNode(t, nd, addr)
	}
	status, hdr, body = get(t, router.URL+"/api/v1/snapshot", nil)
	if status != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("recovered cluster: %d, etag %q", status, hdr.Get("ETag"))
	}
	if !bytes.Equal(body, healthyBody) {
		t.Fatalf("recovered body differs from pre-kill body")
	}
}

// TestClusterUndecodableShardIsMissing pins the router's side of the
// shard→router trust boundary. A shard that answers 200 with bytes the
// router cannot merge — damaged state, more than the client's bound, a
// header origin the state blob contradicts, or JSON because the shard
// predates the state representation — is exactly as missing as a dead
// one: 206, Cache-Control: no-store, no ETag, the shard named in
// missing_shards with the cause, totals equal to the healthy shards' sum.
// The JSON the router reads from its peers (the /api/v1/stats fan-out)
// is bounded the same way: an endless stats body costs that shard its
// place in the sum, not the router its memory.
func TestClusterUndecodableShardIsMissing(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	recs := buildCapture(prefixes)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}

	const n = 3
	parts := partition(recs, db, n)
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = newNode(t, acfg, parts[i])
	}
	healthyKept := nodes[0].st.Snapshot().Census.Kept + nodes[1].st.Snapshot().Census.Kept
	healthyAppended := nodes[0].st.Metrics().AppendedRecords + nodes[1].st.Metrics().AppendedRecords

	// answer runs the request against shard 2's real API and returns what
	// it would have sent.
	answer := func(r *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		nodes[2].srv.ServeHTTP(rec, r)
		return rec
	}
	send := func(w http.ResponseWriter, rec *httptest.ResponseRecorder, body []byte) {
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}
	for _, c := range []struct {
		name, cause string
		shard       http.HandlerFunc
		stats       bool // the damage is on /api/v1/stats, not the data paths
	}{
		{name: "oversized-stats", cause: "exceeds", stats: true, shard: func(w http.ResponseWriter, r *http.Request) {
			// Valid JSON that never ends: whitespace past the bound.
			send(w, answer(r), bytes.Repeat([]byte{' '}, client.MaxJSONBytes+1))
		}},
		{name: "corrupt", cause: "bad shard state", shard: func(w http.ResponseWriter, r *http.Request) {
			rec := answer(r)
			body := rec.Body.Bytes()
			body[len(body)/2] ^= 0x04
			send(w, rec, body)
		}},
		{name: "oversized", cause: "exceeds", shard: func(w http.ResponseWriter, r *http.Request) {
			send(w, answer(r), make([]byte, client.MaxStateBytes+1))
		}},
		{name: "wrong-origin", cause: "bad shard state", shard: func(w http.ResponseWriter, r *http.Request) {
			// A well-formed envelope (valid CRC) whose header origin, bytes
			// 8-15, is an hour off the origin inside the state blob.
			rec := answer(r)
			body := rec.Body.Bytes()
			origin := int64(binary.BigEndian.Uint64(body[8:])) + int64(time.Hour)
			binary.BigEndian.PutUint64(body[8:], uint64(origin))
			crc := crc32.Update(crc32.ChecksumIEEE(body[:40]), crc32.IEEETable, body[44:])
			binary.BigEndian.PutUint32(body[40:], crc)
			send(w, rec, body)
		}},
		{name: "json-instead-of-state", cause: "upgrade shards before routers", shard: func(w http.ResponseWriter, r *http.Request) {
			// What a shard from before the representation does: the
			// unknown parameter is ignored.
			q := r.URL.Query()
			q.Del("format")
			r.URL.RawQuery = q.Encode()
			rec := answer(r)
			send(w, rec, rec.Body.Bytes())
		}},
	} {
		hostile := httptest.NewServer(c.shard)
		fleet, err := New([]string{nodes[0].ts.URL, nodes[1].ts.URL, hostile.URL},
			Options{TopK: acfg.TopK, ClientOptions: &client.Options{Backoff: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := api.New(api.Config{Fanout: fleet})
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(srv)
		paths := []string{"/api/v1/snapshot", "/api/v1/query"}
		if c.stats {
			paths = []string{"/api/v1/stats"}
		}
		for _, path := range paths {
			status, hdr, body := get(t, router.URL+path, nil)
			if status != http.StatusPartialContent || hdr.Get("Cache-Control") != "no-store" || hdr.Get("ETag") != "" {
				t.Fatalf("%s %s: status %d, Cache-Control %q, ETag %q; want 206, no-store, no validator\n%.300s",
					c.name, path, status, hdr.Get("Cache-Control"), hdr.Get("ETag"), body)
			}
			if c.stats {
				var st v1.StatsResponse
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				if st.Degraded == nil || !reflect.DeepEqual(st.Degraded.MissingShards, []int{2}) || !strings.Contains(st.Degraded.Detail, c.cause) {
					t.Fatalf("%s %s: degraded marker %+v, want missing_shards [2] with a detail mentioning %q", c.name, path, st.Degraded, c.cause)
				}
				if st.Store == nil || st.Store.AppendedRecords != healthyAppended {
					t.Fatalf("%s %s: store totals %+v, want the healthy shards' %d appended records", c.name, path, st.Store, healthyAppended)
				}
				continue
			}
			var q v1.QueryResponse
			snap := new(v1.Snapshot)
			if err := json.Unmarshal(body, snap); err != nil {
				t.Fatal(err)
			}
			degraded := snap.Degraded
			if path == "/api/v1/query" {
				if err := json.Unmarshal(body, &q); err != nil {
					t.Fatal(err)
				}
				snap, degraded = q.Snapshot, q.Degraded
			}
			if degraded == nil || !reflect.DeepEqual(degraded.MissingShards, []int{2}) || !strings.Contains(degraded.Detail, c.cause) {
				t.Fatalf("%s %s: degraded marker %+v, want missing_shards [2] with a detail mentioning %q", c.name, path, degraded, c.cause)
			}
			if snap.Census == nil || snap.Census.Kept != healthyKept {
				t.Fatalf("%s %s: census %+v, want the healthy shards' %d kept", c.name, path, snap.Census, healthyKept)
			}
		}
		router.Close()
		hostile.Close()
	}
}

// TestClusterShardWithoutETagIsMissing: every collector stamps its
// answers, so a shard answer without an ETag has crossed something that
// strips headers, and a composite validator over it could name two
// different bodies. The router counts that shard as missing — 206,
// no-store, no validator, the shard in missing_shards — on every data
// path.
func TestClusterShardWithoutETagIsMissing(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	recs := buildCapture(prefixes)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}
	parts := partition(recs, db, 2)
	nodes := []*node{newNode(t, acfg, parts[0]), newNode(t, acfg, parts[1])}

	upstream, err := url.Parse(nodes[1].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(upstream)
	proxy.ModifyResponse = func(resp *http.Response) error {
		resp.Header.Del("ETag")
		return nil
	}
	stripping := httptest.NewServer(proxy)
	t.Cleanup(stripping.Close)
	router := newRouter(t, []*node{nodes[0], {ts: stripping}}, acfg.TopK)

	for _, path := range []string{"/api/v1/snapshot", "/api/v1/query", "/api/v1/query?resolution=day"} {
		status, hdr, body := get(t, router.URL+path, nil)
		if status != http.StatusPartialContent || hdr.Get("Cache-Control") != "no-store" || hdr.Get("ETag") != "" {
			t.Fatalf("%s: status %d, Cache-Control %q, ETag %q; want 206, no-store, no validator",
				path, status, hdr.Get("Cache-Control"), hdr.Get("ETag"))
		}
		var env struct {
			Degraded *v1.Degraded `json:"degraded"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if d := env.Degraded; d == nil || !reflect.DeepEqual(d.MissingShards, []int{1}) || !strings.Contains(d.Detail, "no validator") {
			t.Fatalf("%s: degraded marker %+v, want missing_shards [1] for a shard that sent no validator", path, d)
		}
	}
}

// rebindNode restarts a node's HTTP front on a specific address,
// retrying briefly while the kernel releases the old binding.
func rebindNode(t *testing.T, nd *node, addr string) {
	t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts := httptest.NewUnstartedServer(nd.srv)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	nd.ts = ts
}

// TestClusterCompositeETagSemantics pins the validator algebra the
// composite ETag must satisfy (the checkpoint-invalidation contract of
// store.Version, lifted cluster-wide):
//
//   - a checkpoint on ANY node invalidates the cluster snapshot ETag,
//     even when the rendered body is unchanged (documented
//     over-invalidation, inherited from the single-node contract);
//   - appends outside a frames-only query range do NOT invalidate that
//     range's ETag (the tail does not overlap it);
//   - a checkpoint folding those appends DOES (the frame generation
//     moved).
func TestClusterCompositeETagSemantics(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}

	mkRecs := func(base, count, hourLo int) []netflow.Record {
		var out []netflow.Record
		for i := 0; i < count; i++ {
			a4 := prefixes[(base+i)%len(prefixes)].Addr().As4()
			a4[3] = 9
			out = append(out, keptRecord(entime.StudyStart.Add(time.Duration(hourLo+i%4)*time.Hour),
				netip.AddrFrom4(a4), uint64(100+i)))
		}
		return out
	}

	const n = 2
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = newNode(t, acfg, mkRecs(i*40, 20, 0))
		// Fold the seed data into a checkpoint frame so the query range
		// below is served from frames alone (empty tail).
		if err := nodes[i].st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	router := newRouter(t, nodes, acfg.TopK)

	queryURL := router.URL + "/api/v1/query?" + fmt.Sprintf("from=%d&to=%d",
		entime.StudyStart.Unix(), entime.StudyStart.Add(12*time.Hour).Unix())
	snapURL := router.URL + "/api/v1/snapshot"

	_, qh, qBody := get(t, queryURL, nil)
	qTag := qh.Get("ETag")
	_, sh, _ := get(t, snapURL, nil)
	sTag := sh.Get("ETag")
	if qTag == "" || sTag == "" {
		t.Fatalf("missing ETags: query %q snapshot %q", qTag, sTag)
	}

	// Appends far outside the query range (hours 40+) on node 0: the
	// frames-only range still revalidates — its frames are untouched and
	// the new tail does not overlap it. The whole-window snapshot tag
	// must move (the tail IS in its range).
	appendAll(t, nodes[0].st, mkRecs(200, 10, 40))
	st, _, _ := get(t, queryURL, map[string]string{"If-None-Match": qTag})
	if st != http.StatusNotModified {
		t.Fatalf("frames-only range after out-of-range append: %d, want 304 (tag still valid)", st)
	}
	st, sh2, _ := get(t, snapURL, nil)
	if st != http.StatusOK || sh2.Get("ETag") == sTag {
		t.Fatalf("snapshot tag after in-window append: %d %q (was %q), want a new tag", st, sh2.Get("ETag"), sTag)
	}

	// Checkpointing node 0 folds its tail: the frame generation moves,
	// so the composite for EVERY range — including the untouched
	// frames-only one — invalidates, even though that range's body is
	// byte-identical. This over-invalidation is inherited per shard from
	// store.Version and is the documented cost of frame-level
	// granularity.
	if err := nodes[0].st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, qh2, qBody2 := get(t, queryURL, map[string]string{"If-None-Match": qTag})
	if st != http.StatusOK {
		t.Fatalf("frames-only range after checkpoint: %d, want full 200 (tag invalidated)", st)
	}
	if qh2.Get("ETag") == qTag {
		t.Fatalf("query tag unchanged across a node checkpoint")
	}
	if !bytes.Equal(qBody2, qBody) {
		t.Fatalf("frames-only range body changed across an out-of-range checkpoint")
	}

	// The other node's checkpoint (with fresh in-range tail data)
	// invalidates too: ANY shard's generation moves the composite.
	qTag = qh2.Get("ETag")
	appendAll(t, nodes[1].st, mkRecs(300, 5, 2))
	if err := nodes[1].st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, qh3, _ := get(t, queryURL, map[string]string{"If-None-Match": qTag})
	if st != http.StatusOK || qh3.Get("ETag") == qTag {
		t.Fatalf("query tag after the other node's checkpoint: %d %q, want a new tag", st, qh3.Get("ETag"))
	}
}

// TestFleetContextCancellation covers the operational edge the router's
// own timeout relies on: a cancelled context fails the gather instead
// of hanging, reporting every shard missing.
func TestFleetContextCancellation(t *testing.T) {
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	acfg := streaming.Config{WindowHours: 96, TopK: 10, DB: db, Model: model}
	nd := newNode(t, acfg, buildCapture(prefixes)[:10])

	fleet, err := New([]string{nd.ts.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := fleet.Snapshot(ctx)
	if err != nil {
		t.Fatalf("cancelled gather should degrade, not error: %v", err)
	}
	if res.QueryResult != nil || len(res.Missing) != 1 {
		t.Fatalf("cancelled gather = %+v, want every shard missing", res)
	}
}

// TestSkewedShardsSnapshotLikeOneNode pins the routed snapshot to the
// live window when the shards' newest hours differ — one hour of skew is
// routine at every hour boundary — and history is longer than the window:
// the fleet renders the window ending at its newest hour, with the same
// hours, counts and late census as one node holding every record.
func TestSkewedShardsSnapshotLikeOneNode(t *testing.T) {
	acfg := streaming.Config{WindowHours: 48, TopK: 10}
	// One client network owned by each shard.
	var clients [2]netip.Addr
	for i, found := 0, 0; found < 2; i++ {
		addr := netip.AddrFrom4([4]byte{172, 16, byte(i), 33})
		r := keptRecord(entime.StudyStart, addr, 1)
		if o := Owner(&r, nil, 2); !clients[o].IsValid() {
			clients[o] = addr
			found++
		}
	}
	var recs []netflow.Record
	for h := 0; h <= 100; h++ {
		at := entime.StudyStart.Add(time.Duration(h) * time.Hour)
		recs = append(recs, keptRecord(at, clients[0], uint64(100+h)))
		if h < 100 {
			recs = append(recs, keptRecord(at, clients[1], uint64(300+h)))
		}
	}
	parts := partition(recs, nil, 2)
	union := newNode(t, acfg, recs)
	router := newRouter(t, []*node{newNode(t, acfg, parts[0]), newNode(t, acfg, parts[1])}, acfg.TopK)
	for _, url := range []string{"/api/v1/snapshot", "/api/v1/snapshot?pretty=1"} {
		wantStatus, _, want := get(t, union.ts.URL+url, nil)
		gotStatus, _, got := get(t, router.URL+url, nil)
		if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
			t.Fatalf("%s: status union=%d router=%d", url, wantStatus, gotStatus)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: router body differs from one node's\n got: %.600s\nwant: %.600s", url, got, want)
		}
	}
}
