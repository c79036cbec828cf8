package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// identity asks for the state representation the way the cluster client
// does: no content coding.
var identity = map[string]string{"Accept-Encoding": "identity"}

// TestStateRepresentationContract pins ?format=state on both data
// endpoints of a shard: its own media type (nosniff, uncompressed when
// identity is asked), its own strong ETag that revalidates to a bodyless
// 304 and never equals the JSON one for the same range, HEAD mirroring
// GET, and a body that decodes to exactly the merge input the JSON body
// would have been rebuilt into.
func TestStateRepresentationContract(t *testing.T) {
	_, ts := storeServer(t)
	from := url.QueryEscape(entime.StudyStart.Format(time.RFC3339))
	to := url.QueryEscape(entime.StudyStart.Add(20 * time.Hour).Format(time.RFC3339))
	for _, path := range []string{"/api/v1/snapshot?", "/api/v1/query?from=" + from + "&to=" + to + "&"} {
		jsonResp, jsonBody := get(t, ts.URL+path+"top=0", identity)
		resp, body := get(t, ts.URL+path+"format=state", identity)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: state fetch %d %s", path, resp.StatusCode, body)
		}
		h := resp.Header
		if h.Get("Content-Type") != StateMediaType || h.Get("X-Content-Type-Options") != "nosniff" {
			t.Fatalf("%s: Content-Type %q, X-Content-Type-Options %q", path, h.Get("Content-Type"), h.Get("X-Content-Type-Options"))
		}
		if h.Get("Content-Encoding") != "" {
			t.Fatalf("%s: identity was asked, got Content-Encoding %q", path, h.Get("Content-Encoding"))
		}
		etag := h.Get("ETag")
		if etag == "" || etag == jsonResp.Header.Get("ETag") {
			t.Fatalf("%s: state ETag %q, JSON ETag %q: want two distinct validators", path, etag, jsonResp.Header.Get("ETag"))
		}

		// Revalidation: the state tag is a 304, the JSON tag is not.
		resp304, body304 := get(t, ts.URL+path+"format=state", map[string]string{"If-None-Match": etag})
		if resp304.StatusCode != http.StatusNotModified || len(body304) != 0 || resp304.Header.Get("ETag") != etag {
			t.Fatalf("%s: revalidation %d with %d bytes under %q", path, resp304.StatusCode, len(body304), resp304.Header.Get("ETag"))
		}
		cross, _ := get(t, ts.URL+path+"format=state", map[string]string{"If-None-Match": jsonResp.Header.Get("ETag")})
		if cross.StatusCode != http.StatusOK {
			t.Fatalf("%s: the JSON validator revalidated the state representation (%d)", path, cross.StatusCode)
		}

		// HEAD mirrors the GET's headers and sends no body.
		req, _ := http.NewRequest(http.MethodHead, ts.URL+path+"format=state", nil)
		req.Header.Set("Accept-Encoding", "identity")
		head, err := (&http.Transport{DisableCompression: true}).RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		headBody, _ := io.ReadAll(head.Body)
		head.Body.Close()
		if len(headBody) != 0 {
			t.Fatalf("%s: HEAD carried %d body bytes", path, len(headBody))
		}
		for _, k := range []string{"Content-Type", "Content-Length", "ETag", "X-Content-Type-Options", "Cache-Control", "Vary"} {
			if head.Header.Get(k) != h.Get(k) || h.Get(k) == "" {
				t.Fatalf("%s: HEAD %s %q, GET %q", path, k, head.Header.Get(k), h.Get(k))
			}
		}

		// The body is the merge input the JSON body stood for.
		st, err := DecodeState(body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var snap *v1.Snapshot
		if strings.Contains(path, "query") {
			var q v1.QueryResponse
			if err := json.Unmarshal(jsonBody, &q); err != nil {
				t.Fatal(err)
			}
			snap = q.Snapshot
			if st.Frames != q.Frames || st.TailIncluded != q.TailIncluded || q.Frames == 0 {
				t.Fatalf("query metadata: state %d/%v, JSON %d/%v", st.Frames, st.TailIncluded, q.Frames, q.TailIncluded)
			}
		} else {
			snap = new(v1.Snapshot)
			if err := json.Unmarshal(jsonBody, snap); err != nil {
				t.Fatal(err)
			}
		}
		if st.Resolution != "" || st.LongHorizon != nil {
			t.Fatalf("%s: exact path shipped a long-horizon part (%q)", path, st.Resolution)
		}
		cfg := streaming.Config{WindowHours: snap.WindowHours, TopK: testCfg().TopK}
		want := streaming.New(cfg)
		want.Merge(streaming.FromSnapshot(snap.Streaming()))
		got := streaming.Fold(cfg, time.Time{}, time.Time{}, st.State)
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("%s: state merges to\n%+v\nthe JSON body to\n%+v", path, got.Snapshot(), want.Snapshot())
		}
	}

	// An unknown representation is the structured 400, on both endpoints.
	for _, path := range []string{"/api/v1/snapshot", "/api/v1/query"} {
		resp, body := get(t, ts.URL+path+"?format=bogus", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s?format=bogus: %d", path, resp.StatusCode)
		}
		if e := decodeError(t, body); e.Code != v1.CodeBadRequest {
			t.Fatalf("%s?format=bogus: code %q", path, e.Code)
		}
	}
	// A router has renderings to offer, not state.
	rec := fanGet(t, fanServer(t, &fakeFanout{shards: 2}), "/api/v1/snapshot?format=state", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("format=state on a router: %d", rec.Code)
	}
	decodeError(t, rec.Body.Bytes())
}

// TestStateLongHorizon pins the long-horizon half: a day answer's state
// carries the effective resolution, the source counts and a tier frame
// that folds back into the very answer the JSON body renders.
func TestStateLongHorizon(t *testing.T) {
	const days = 12
	_, ts := tierServer(t, days)
	_, jsonBody := get(t, ts.URL+"/api/v1/query?resolution=auto", nil)
	var q v1.QueryResponse
	if err := json.Unmarshal(jsonBody, &q); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/api/v1/query?resolution=auto&format=state", identity)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state fetch %d %s", resp.StatusCode, body)
	}
	st, err := DecodeState(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resolution != tier.ResolutionDay || st.LongHorizon == nil || st.LongHorizon.Level != tier.LevelDay {
		t.Fatalf("auto over %d days: state resolution %q", days, st.Resolution)
	}
	if st.TierFrames != q.LongHorizon.TierFrames || st.RawFrames != q.LongHorizon.RawFrames || st.TierFrames == 0 {
		t.Fatalf("sources: state %d tier + %d raw, JSON %d + %d", st.TierFrames, st.RawFrames, q.LongHorizon.TierFrames, q.LongHorizon.RawFrames)
	}
	b := tier.NewBuilder(st.Resolution, st.Origin, nil)
	b.AddFrame(st.LongHorizon)
	got := b.Answer()
	got.TierFrames, got.RawFrames = st.TierFrames, st.RawFrames
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(q.LongHorizon)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("frame folds to\n%s\nthe JSON answer is\n%s", gotJSON, wantJSON)
	}
}

// TestStateOriginKeepsZone pins what MarshalBinary alone would lose: the
// state blob stores Origin as an instant, the envelope the zone it is
// rendered in, so a shard anchored at +02:00 re-renders at +02:00.
func TestStateOriginKeepsZone(t *testing.T) {
	berlin := time.FixedZone("CEST", 2*3600)
	for _, origin := range []time.Time{
		time.Date(2020, 6, 15, 0, 0, 0, 0, berlin),
		time.Date(2020, 6, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 6, 15, 0, 0, 0, 0, time.FixedZone("", -(5*3600+1800))),
	} {
		a := streaming.New(streaming.Config{Origin: origin, WindowHours: 48})
		r := keptRecord(3, 7, 100)
		r.First = origin.Add(3 * time.Hour)
		a.Ingest([]netflow.Record{r})
		snap := a.Snapshot()
		body, err := encodeState(nil, streaming.FromSnapshot(snap).Detach(time.Time{}, time.Time{}), snap.Origin, new(store.QueryResult))
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeState(body)
		if err != nil {
			t.Fatal(err)
		}
		m := streaming.Fold(streaming.Config{Origin: st.Origin, WindowHours: st.State.Window()}, time.Time{}, time.Time{}, st.State)
		got, _ := json.Marshal(m.Snapshot())
		want, _ := json.Marshal(streaming.FromSnapshot(a.Snapshot()).Snapshot())
		if !bytes.Equal(got, want) {
			t.Fatalf("origin %s re-rendered as\n%s\nwant\n%s", origin.Format(time.RFC3339), got, want)
		}
	}
}

// TestStateDayAnswerDecodesNoSketch pins what the one accumulator took off
// the hop: a shard's day answer reaches encodeState with the frame its
// builder summed, sketches and all, so encoding it is the frame's bytes and
// the state's. When the frame was rebuilt from the rendered answer, every
// routed day/week request parsed the HLL and the quantile sketch back out
// of the bytes Answer had just marshaled them to — 4 096 registers and a
// bucket table allocated per answer, to be marshaled again; measured with
// this loop at the parent of this test, an encoding of this answer
// allocated 33 670 bytes.
func TestStateDayAnswerDecodesNoSketch(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts under -race measure the detector")
	}
	const (
		days        = 12
		runs        = 64
		parentBytes = 33_670
	)
	st, _ := tierServer(t, days)
	res, err := st.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil || res.LongHorizon == nil || res.LongHorizon.TierFrames != days-1 {
		t.Fatalf("day answer: %v, %+v", err, res)
	}
	state, origin := res.State()
	least := ^uint64(0)
	for pass := 0; pass < 3; pass++ { // strays only ever add
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := encodeState(nil, state, origin, res); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("encoding a %d-day answer as shard state allocates %d bytes (parent: %d)", days, least, parentBytes)
	if least+4096 > parentBytes {
		t.Errorf("encoding a day answer as shard state allocates %d bytes: within an HLL's registers of the %d it took to decode both sketches first", least, parentBytes)
	}
}
