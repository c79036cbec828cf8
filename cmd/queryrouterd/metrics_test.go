package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	"cwatrace/internal/cluster"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// fixedLive is a frozen api.Live shard pipeline for the router under
// test.
type fixedLive struct {
	stats ingest.Stats
}

func (f *fixedLive) Stats() ingest.Stats { return f.stats }

// shardServer serves one shard whose store holds a single kept record,
// reporting ingest watermark wm.
func shardServer(t *testing.T, wm int64) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: streaming.Config{WindowHours: 48, TopK: 5}, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fl := core.DefaultFilter()
	if err := st.Append([]netflow.Record{{
		Key: netflow.Key{
			Src:     fl.ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 9}),
			SrcPort: netflow.PortHTTPS,
			DstPort: 50000,
			Proto:   netflow.ProtoTCP,
		},
		Packets: 1, Bytes: 100,
		First: entime.StudyStart, Last: entime.StudyStart,
		Exporter: "ISP/BE-000",
	}}); err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(api.Config{
		Live:    &fixedLive{stats: ingest.Stats{Records: 1, Processed: 1, WatermarkUnixNano: wm}},
		History: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterMetricsExposition boots the router composition main() uses
// and enforces the /metrics contract with the strict exposition linter:
// well-formed page, the cluster series (per-shard latency and errors,
// watermarks refreshed by the scrape itself), and the API layer's
// instruments on the same page.
func TestRouterMetricsExposition(t *testing.T) {
	s0 := shardServer(t, 100e9)
	s1 := shardServer(t, 50e9)

	o := obs.StackFlags(flag.NewFlagSet("test", flag.ContinueOnError))() // the flag defaults
	fleet, err := cluster.New([]string{s0.URL, s1.URL}, cluster.Options{
		Metrics:       o.Reg,
		Events:        o.Events,
		ClientOptions: &client.Options{Retries: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(newRouterServer(fleet, o, false, 0, false))
	t.Cleanup(router.Close)

	// One data fan-out so the request histograms have observations.
	if resp, err := http.Get(router.URL + "/api/v1/snapshot"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot fan-out = %d", resp.StatusCode)
		}
		if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "shard0;dur=") || !strings.Contains(st, "shard1;dur=") {
			t.Fatalf("Server-Timing = %q, want per-shard durations", st)
		}
	}

	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(string(body))
	for _, e := range errs {
		t.Errorf("exposition lint: %v", e)
	}

	// The scrape itself ran a stats gather, so the watermarks are fresh
	// without any prior /api/v1/stats request. Fleet = min, not sum.
	if v, ok := exp.Value("cluster_fleet_watermark_timestamp_seconds", ""); !ok || v != 50 {
		t.Fatalf("cluster_fleet_watermark_timestamp_seconds = %v (found=%t), want the min 50", v, ok)
	}
	if v, ok := exp.Value("cluster_shard_watermark_timestamp_seconds", `{shard="0"}`); !ok || v != 100 {
		t.Fatalf("shard 0 watermark = %v (found=%t), want 100", v, ok)
	}
	for _, shard := range []string{"0", "1"} {
		labels := `{shard="` + shard + `"}`
		if v, ok := exp.Value("cluster_shard_request_seconds_count", labels); !ok || v < 2 {
			t.Fatalf("cluster_shard_request_seconds_count%s = %v (found=%t), want >= 2", labels, v, ok)
		}
		if v, ok := exp.Value("cluster_shard_errors_total", labels); !ok || v != 0 {
			t.Fatalf("cluster_shard_errors_total%s = %v (found=%t), want 0", labels, v, ok)
		}
	}
	if typ := exp.Types["cluster_fanouts_total"]; typ != "counter" {
		t.Fatalf("cluster_fanouts_total type = %q, want counter", typ)
	}
	if v, ok := exp.Value("api_requests_total", `{endpoint="v1_snapshot"}`); !ok || v != 1 {
		t.Fatalf(`api_requests_total{endpoint="v1_snapshot"} = %v (found=%t), want 1`, v, ok)
	}
}
