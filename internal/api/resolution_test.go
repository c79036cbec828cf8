package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// tierServer builds a tier-folding store holding days whole days (one
// checkpoint per day, so day frames fold as they close) and a server
// over it.
func tierServer(t testing.TB, days int) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{
		Analytics: streaming.Config{WindowHours: days*24 + 48, TopK: 5},
		Sync:      store.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for d := 0; d < days; d++ {
		var batch []netflow.Record
		for hh := 0; hh < 3; hh++ {
			for c := 0; c < 4; c++ {
				// The id's high byte is the /24's third octet, so every
				// (day, client) pair owns its own prefix and the HLL has a
				// closed-form ground truth of days*4.
				batch = append(batch, keptRecord(d*24+hh*8, (d*4+c)<<8, uint64(300+c)))
			}
		}
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
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

// TestQueryResolutionAPI pins the long-horizon wire contract of
// /api/v1/query: a day-resolution answer carries the long_horizon block
// with an honest approximate marker and day-wide buckets, hour (and the
// unset default) keeps the exact v1 shape with neither new field, auto
// resolves by span, a bogus value is a 400 envelope, and the resolution
// participates in conditional-GET revalidation like any other
// parameter.
func TestQueryResolutionAPI(t *testing.T) {
	const days = 12
	_, ts := tierServer(t, days)

	// Day resolution: the approximate tiered path.
	resp, body := get(t, ts.URL+"/api/v1/query?resolution=day", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("day query: %d %s", resp.StatusCode, body)
	}
	var day v1.QueryResponse
	if err := json.Unmarshal(body, &day); err != nil {
		t.Fatal(err)
	}
	if day.Resolution != "day" || day.LongHorizon == nil {
		t.Fatalf("day query: resolution %q, long_horizon nil=%v", day.Resolution, day.LongHorizon == nil)
	}
	lh := day.LongHorizon
	if !lh.Approximate {
		t.Fatal("tiered answer must be marked approximate")
	}
	if lh.BucketHours != 24 {
		t.Fatalf("day buckets are %dh wide", lh.BucketHours)
	}
	if len(lh.Buckets) == 0 || lh.TierFrames == 0 {
		t.Fatalf("day answer selected %d buckets from %d tier frames", len(lh.Buckets), lh.TierFrames)
	}
	if lh.DistinctPrefixes == 0 || lh.Presence.Count == 0 {
		t.Fatalf("sketch aggregates missing: distinct=%d presence.n=%d", lh.DistinctPrefixes, lh.Presence.Count)
	}
	// Every kept record lands in a distinct /24 per 4-client day group;
	// the HLL estimate must be in the right neighbourhood, not a token.
	if lh.DistinctPrefixes < uint64(days*4*8/10) || lh.DistinctPrefixes > uint64(days*4*12/10) {
		t.Fatalf("distinct prefixes ~%d, want near %d", lh.DistinctPrefixes, days*4)
	}

	// The resolution is part of the validator contract: a 200 with a
	// strong ETag, revalidating to a bodyless 304.
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("day query carried no ETag")
	}
	resp, body = get(t, ts.URL+"/api/v1/query?resolution=day", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: %d with %d body bytes", resp.StatusCode, len(body))
	}

	// hour is the exact path and must stay byte-identical to the
	// parameterless default — the frozen v1 shape, no new fields.
	_, defBody := get(t, ts.URL+"/api/v1/query", nil)
	_, hourBody := get(t, ts.URL+"/api/v1/query?resolution=hour", nil)
	if !bytes.Equal(defBody, hourBody) {
		t.Fatal("resolution=hour diverges from the parameterless exact path")
	}
	if bytes.Contains(defBody, []byte(`"long_horizon"`)) || bytes.Contains(defBody, []byte(`"resolution"`)) {
		t.Fatal("exact path leaked long-horizon fields into the frozen v1 shape")
	}

	// auto over the full 12-day history resolves to day (spans over 8
	// days downsample; spans over 62 go to week).
	_, autoBody := get(t, ts.URL+"/api/v1/query?resolution=auto", nil)
	var auto v1.QueryResponse
	if err := json.Unmarshal(autoBody, &auto); err != nil {
		t.Fatal(err)
	}
	if auto.Resolution != "day" || auto.LongHorizon == nil {
		t.Fatalf("auto over %d days resolved to %q", days, auto.Resolution)
	}
	// A short sub-span stays on the exact path under auto.
	from := entime.StudyStart.Format(time.RFC3339)
	to := entime.StudyStart.Add(48 * time.Hour).Format(time.RFC3339)
	_, shortBody := get(t, ts.URL+"/api/v1/query?resolution=auto&from="+from+"&to="+to, nil)
	var short v1.QueryResponse
	if err := json.Unmarshal(shortBody, &short); err != nil {
		t.Fatal(err)
	}
	if short.Resolution != "" || short.LongHorizon != nil {
		t.Fatalf("auto over 2 days took the tiered path: resolution %q", short.Resolution)
	}

	// An unknown resolution is a structured 400.
	resp, body = get(t, ts.URL+"/api/v1/query?resolution=fortnight", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus resolution: %d", resp.StatusCode)
	}
	decodeError(t, body)
}

// TestQueryResolutionResidualSeries pins what the snapshot of a day/week
// answer is: the exact raw residual, whose hourly series starts at the
// residual's own first populated hour. The hours before it are answered
// by long_horizon.buckets; rendering them as rows of zero flows would
// contradict the buckets (and was most of a year-span body). The hour
// path keeps rendering the whole covered span.
func TestQueryResolutionResidualSeries(t *testing.T) {
	const days = 12
	_, ts := tierServer(t, days)
	// Days 0-10 are folded; the last day's checkpoint frame is the raw
	// residual, with traffic at hours 0, 8 and 16 of that day.
	const first = (days - 1) * 24
	until := url.QueryEscape(entime.StudyStart.Add((first + 12) * time.Hour).Format(time.RFC3339))
	for _, c := range []struct {
		query string
		hours int
	}{
		{"resolution=day", 17},
		{"resolution=week", 17},
		{"resolution=day&from=" + url.QueryEscape(entime.StudyStart.Add(48*time.Hour).Format(time.RFC3339)), 17},
		{"resolution=day&to=" + until, 12},
	} {
		_, body := get(t, ts.URL+"/api/v1/query?"+c.query, nil)
		var resp v1.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		snap := resp.Snapshot
		if resp.LongHorizon == nil || resp.LongHorizon.RawFrames != 1 {
			t.Fatalf("%s: want a tiered answer with one residual frame, got %+v", c.query, resp.LongHorizon)
		}
		if snap.SeriesStart != first || len(snap.Hours) != c.hours || snap.Hours[0].Hour != first || snap.Hours[0].Flows == 0 {
			t.Fatalf("%s: residual series starts at hour %d with %d rows (first row %+v), want %d rows from the first populated hour %d",
				c.query, snap.SeriesStart, len(snap.Hours), snap.Hours[0], c.hours, first)
		}
		// Nothing is lost by not rendering the tiered hours here: over an
		// untrimmed range the buckets account for every kept flow.
		var bucketed float64
		for _, b := range resp.LongHorizon.Buckets {
			bucketed += b.Flows
		}
		if c.hours == 17 && int(bucketed) != resp.LongHorizon.Census.Kept {
			t.Fatalf("%s: buckets hold %v flows, census kept %d", c.query, bucketed, resp.LongHorizon.Census.Kept)
		}
	}

	_, body := get(t, ts.URL+"/api/v1/query?resolution=hour", nil)
	var hour v1.QueryResponse
	if err := json.Unmarshal(body, &hour); err != nil {
		t.Fatal(err)
	}
	if hour.Snapshot.SeriesStart != 0 || len(hour.Snapshot.Hours) != first+17 {
		t.Fatalf("hour path: series starts at %d with %d rows, want 0 with %d", hour.Snapshot.SeriesStart, len(hour.Snapshot.Hours), first+17)
	}
}
