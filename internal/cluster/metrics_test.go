package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"cwatrace/internal/api"
	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"

	"net/netip"
)

// stubLive is a fixed api.Live source whose stats carry a chosen ingest
// watermark.
type stubLive struct {
	stats ingest.Stats
}

func (s *stubLive) Stats() ingest.Stats { return s.stats }

// liveNode serves one shard: a store holding one record, beside a stub
// pipeline reporting watermark wm.
func liveNode(t *testing.T, acfg streaming.Config, wm int64) *httptest.Server {
	t.Helper()
	nd := newNode(t, acfg, []netflow.Record{keptRecord(entime.StudyStart, netip.AddrFrom4([4]byte{10, 1, 2, 3}), 100)})
	srv, err := api.New(api.Config{
		Live:    &stubLive{stats: ingest.Stats{Records: 1, Processed: 1, WatermarkUnixNano: wm}},
		History: nd.st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// lintFleet renders reg and returns the parsed exposition.
func lintFleet(t *testing.T, reg *obs.Registry) *obs.Exposition {
	t.Helper()
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(page.String())
	for _, e := range errs {
		t.Errorf("exposition lint: %v", e)
	}
	return exp
}

func value(t *testing.T, exp *obs.Exposition, name, labels string) float64 {
	t.Helper()
	v, ok := exp.Value(name, labels)
	if !ok {
		t.Fatalf("sample %s%s not found", name, labels)
	}
	return v
}

// TestFleetMetricsAndWatermarks drives fan-outs through an instrumented
// Fleet and checks the per-shard latency/error series and the watermark
// rule: the fleet watermark is the MINIMUM over shards, never a sum.
func TestFleetMetricsAndWatermarks(t *testing.T) {
	acfg := streaming.Config{WindowHours: 48, TopK: 5}
	n0 := liveNode(t, acfg, 100e9) // shard 0 is fresher
	n1 := liveNode(t, acfg, 50e9)  // shard 1 lags

	reg := obs.NewRegistry()
	fleet, err := New([]string{n0.URL, n1.URL}, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := fleet.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 2 {
		t.Fatalf("Timings = %v, want one entry per shard", res.Timings)
	}
	for i, tm := range res.Timings {
		if tm.Shard != i || tm.Node == "" || tm.D <= 0 {
			t.Fatalf("timing %d = %+v", i, tm)
		}
	}

	fs, err := fleet.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Ingest.WatermarkUnixNano != 50e9 {
		t.Fatalf("fleet watermark = %d, want the min 50e9 (not a sum)", fs.Ingest.WatermarkUnixNano)
	}
	if fs.Ingest.Records != 2 {
		t.Fatalf("summed records = %d, want 2", fs.Ingest.Records)
	}

	exp := lintFleet(t, reg)
	if got := value(t, exp, "cluster_fanouts_total", ""); got != 2 {
		t.Fatalf("cluster_fanouts_total = %v, want 2", got)
	}
	if got := value(t, exp, "cluster_fleet_watermark_timestamp_seconds", ""); got != 50 {
		t.Fatalf("fleet watermark gauge = %v, want 50", got)
	}
	if got := value(t, exp, "cluster_shard_watermark_timestamp_seconds", `{shard="0"}`); got != 100 {
		t.Fatalf("shard 0 watermark gauge = %v, want 100", got)
	}
	for shard := 0; shard < 2; shard++ {
		labels := `{shard="` + string(rune('0'+shard)) + `"}`
		if got := value(t, exp, "cluster_shard_request_seconds_count", labels); got != 2 {
			t.Fatalf("shard %d request count = %v, want 2", shard, got)
		}
		if got := value(t, exp, "cluster_shard_errors_total", labels); got != 0 {
			t.Fatalf("shard %d errors = %v, want 0", shard, got)
		}
	}

	// Kill shard 1: the next gather is degraded, its errors counter
	// moves, and the shard's watermark gauge drops to 0 (unknown).
	n1.Close()
	if missing := fleet.Health(ctx); len(missing) != 1 || missing[0].Shard != 1 {
		t.Fatalf("Health after kill = %+v, want shard 1 missing", missing)
	}
	if _, err := fleet.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	exp = lintFleet(t, reg)
	if got := value(t, exp, "cluster_degraded_fanouts_total", ""); got < 2 {
		t.Fatalf("cluster_degraded_fanouts_total = %v, want >= 2", got)
	}
	if got := value(t, exp, "cluster_shard_errors_total", `{shard="1"}`); got < 2 {
		t.Fatalf("shard 1 errors = %v, want >= 2", got)
	}
	if got := value(t, exp, "cluster_shard_watermark_timestamp_seconds", `{shard="1"}`); got != 0 {
		t.Fatalf("dead shard 1 watermark gauge = %v, want 0", got)
	}
	if got := value(t, exp, "cluster_fleet_watermark_timestamp_seconds", ""); got != 100 {
		t.Fatalf("fleet watermark with shard 1 down = %v, want the reachable min 100", got)
	}
}
