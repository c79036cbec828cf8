package api

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/obs"
)

// accessLine is the pinned access-log shape:
//
//	METHOD REQUEST-URI STATUS BYTESB DURATIONus id=REQUEST-ID
//
// Operators grep and field-split these lines; changing the format is a
// breaking change and must update this test deliberately.
var accessLine = regexp.MustCompile(`^(GET|HEAD) \S+ \d{3} \d+B \d+us id=([0-9A-Za-z_.-]{1,64})$`)

// logServer builds an instrumented store server whose access log lands
// in the returned buffer.
func logServer(t *testing.T, reg *obs.Registry, slow time.Duration) (*httptest.Server, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	s, err := New(Config{
		History:   sampleStore(t, 1),
		Log:       log.New(&buf, "", 0),
		Metrics:   reg,
		SlowQuery: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, &buf
}

// TestAccessLogFormat pins the access-log line format and the request-id
// trace contract: a valid client-supplied X-Request-Id is adopted
// verbatim (and echoed on the response); an invalid or absent one is
// replaced by a minted id that still appears in both places.
func TestAccessLogFormat(t *testing.T) {
	reg := obs.NewRegistry()
	ts, buf := logServer(t, reg, 0)

	cases := []struct {
		name     string
		sentID   string
		wantSame bool
	}{
		{"supplied id adopted", "router-42.abc_DEF", true},
		{"absent id minted", "", false},
		{"invalid id replaced", "spaces are not allowed", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf.Reset()
			hdr := map[string]string{}
			if tc.sentID != "" {
				hdr[obs.RequestIDHeader] = tc.sentID
			}
			resp, body := get(t, ts.URL+"/api/v1/health", hdr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d body %q", resp.StatusCode, body)
			}
			echoed := resp.Header.Get(obs.RequestIDHeader)
			if !obs.ValidRequestID(echoed) {
				t.Fatalf("response echoed invalid id %q", echoed)
			}
			if tc.wantSame && echoed != tc.sentID {
				t.Fatalf("valid supplied id not adopted: sent %q, echoed %q", tc.sentID, echoed)
			}
			if !tc.wantSame && echoed == tc.sentID {
				t.Fatalf("invalid id %q adopted verbatim", tc.sentID)
			}

			line := strings.TrimSuffix(buf.String(), "\n")
			m := accessLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("access log line %q does not match pinned format %s", line, accessLine)
			}
			if m[2] != echoed {
				t.Fatalf("access log id %q != response header id %q", m[2], echoed)
			}
			wantPrefix := "GET /api/v1/health 200 "
			if !strings.HasPrefix(line, wantPrefix) {
				t.Fatalf("line %q does not start with %q", line, wantPrefix)
			}
		})
	}

	// The per-endpoint counters saw every request under the closed
	// vocabulary label.
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(page.String())
	if len(errs) > 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	got, ok := exp.Value("api_requests_total", `{endpoint="v1_health"}`)
	if !ok || got != float64(len(cases)) {
		t.Fatalf("api_requests_total{endpoint=\"v1_health\"} = %v (found=%t), want %d", got, ok, len(cases))
	}
}

// TestSlowQueryLog drives a request over the slow-query threshold and
// requires the flagged second line (same id, "slow query:" marker).
func TestSlowQueryLog(t *testing.T) {
	ts, buf := logServer(t, nil, time.Nanosecond)
	resp, _ := get(t, ts.URL+"/api/v1/health", nil)
	id := resp.Header.Get(obs.RequestIDHeader)
	out := buf.String()
	want := "api: slow query: GET /api/v1/health 200 "
	if !strings.Contains(out, want) {
		t.Fatalf("log output %q misses slow-query line %q", out, want)
	}
	if !strings.Contains(out, "id="+id) {
		t.Fatalf("slow-query log output %q misses request id %q", out, id)
	}
	// A non-fan-out response carries no Server-Timing, so the line must
	// not grow the shards field.
	if strings.Contains(out, "shards=") {
		t.Fatalf("slow-query line for a shard-local request grew a shards field: %q", out)
	}
}

// TestSlowQueryLogShardBreakdown: when the response carries the
// router's Server-Timing per-shard breakdown, the slow-query line is
// enriched with it so one grep explains where the time went.
func TestSlowQueryLogShardBreakdown(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		History:   sampleStore(t, 1),
		Log:       log.New(&buf, "", 0),
		SlowQuery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Handle("/debug/slowprobe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Server-Timing", "shard0;dur=12.5, shard1;dur=3.1")
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp, _ := get(t, ts.URL+"/debug/slowprobe", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query: GET /debug/slowprobe 200 ") {
		t.Fatalf("log output %q misses slow-query line", out)
	}
	if !strings.Contains(out, ` shards="shard0;dur=12.5, shard1;dur=3.1"`) {
		t.Fatalf("slow-query line not enriched with Server-Timing: %q", out)
	}
}
