package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"net/netip"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// scrape fetches /metrics from ts, requires the Prometheus content
// type, and returns the page parsed by the strict exposition linter —
// the parser-enforced contract: HELP/TYPE before every sample, counter
// names ending in _total, no duplicate series, no trailing whitespace.
func scrape(t *testing.T, ts *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
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
	return exp
}

// daemonServer assembles the collectord composition under test: a real
// loopback pipeline, optionally a durable store, one shared registry,
// and the API server exactly as main() wires it.
func daemonServer(t *testing.T, durable bool) (*httptest.Server, *store.Store) {
	t.Helper()
	o := obs.StackFlags(flag.NewFlagSet("test", flag.ContinueOnError))() // the flag defaults
	reg := o.Reg
	acfg := streaming.Config{WindowHours: 48, TopK: 5}
	icfg := ingest.Config{
		Listen:    []string{"127.0.0.1:0"},
		Workers:   2,
		Analytics: acfg,
		Metrics:   reg,
	}
	var st *store.Store
	if durable {
		var err error
		st, err = store.Open(t.TempDir(), store.Options{Analytics: acfg, Sync: store.SyncNever, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		icfg.Sink = st
		icfg.SinkOnly = true
	}
	p, err := ingest.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv := newAPIServer(p, st, o, false, 0, false)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, st
}

// TestMetricsExpositionFormat scrapes the durable daemon's /metrics and
// enforces the format contract plus the frozen metric names: the
// registry port kept every pre-registry name byte-identical, so
// dashboards and the crash drill's waitForMetric keep working.
func TestMetricsExpositionFormat(t *testing.T) {
	ts, st := daemonServer(t, true)
	f := core.DefaultFilter()
	if err := st.Append([]netflow.Record{{
		Key: netflow.Key{
			Src:     f.ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 9}),
			SrcPort: netflow.PortHTTPS,
			DstPort: 50000,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  1,
		Bytes:    100,
		First:    entime.StudyStart,
		Last:     entime.StudyStart.Add(time.Second),
		Exporter: "ISP/BE-000",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	exp := scrape(t, ts)

	counters := []string{
		"ingest_packets_total", "ingest_records_total",
		"ingest_records_processed_total", "ingest_records_dropped_total",
		"ingest_batches_dropped_total", "ingest_decode_errors_total",
		"ingest_socket_errors_total", "ingest_sink_errors_total",
		"ingest_seq_gaps_total", "ingest_seq_lost_total", "ingest_seq_reordered_total",
		"store_appended_records_total", "store_checkpoints_total",
		"store_compacted_frames_total", "store_recovered_wal_records_total",
		"store_recovered_frames_total",
		"store_frame_cache_hits_total", "store_frame_cache_misses_total",
	}
	for _, name := range counters {
		if typ := exp.Types[name]; typ != "counter" {
			t.Errorf("%s: type %q, want counter", name, typ)
		}
		if _, ok := exp.Value(name, ""); !ok {
			t.Errorf("%s: sample missing", name)
		}
	}
	gauges := []string{
		"ingest_sources", "ingest_watermark_timestamp_seconds",
		"store_segments", "store_wal_bytes", "store_frames",
		"store_tail_records", "store_last_checkpoint_age_seconds",
		"store_watermark_timestamp_seconds", "store_frame_cache_bytes",
	}
	for _, name := range gauges {
		if typ := exp.Types[name]; typ != "gauge" {
			t.Errorf("%s: type %q, want gauge", name, typ)
		}
	}
	if v, ok := exp.Value("store_checkpoints_total", ""); !ok || v != 1 {
		t.Fatalf("store_checkpoints_total = %v (found=%t), want 1", v, ok)
	}
	if v, ok := exp.Value("store_watermark_timestamp_seconds", ""); !ok || v != float64(entime.StudyStart.UnixNano())/1e9 {
		t.Fatalf("store_watermark_timestamp_seconds = %v (found=%t), want the appended record's First", v, ok)
	}
	if _, ok := exp.Value("store_fsync_seconds_count", ""); !ok {
		t.Error("store_fsync_seconds histogram missing")
	}
	if _, ok := exp.Value("api_inflight_requests", ""); !ok {
		t.Error("api_inflight_requests missing — the API layer is uninstrumented")
	}
}

// TestMetricsWithoutStoreOmitsStoreGauges pins the non-durable daemon's
// exposition: ingest and API metrics only, still well-formed.
func TestMetricsWithoutStoreOmitsStoreGauges(t *testing.T) {
	ts, _ := daemonServer(t, false)
	exp := scrape(t, ts)
	for name := range exp.Types {
		if strings.HasPrefix(name, "store_") {
			t.Fatalf("store metric %q emitted without a store", name)
		}
	}
	if _, ok := exp.Value("ingest_packets_total", ""); !ok {
		t.Fatal("ingest_packets_total missing")
	}
}

// TestMetricsNamesStableAcrossRestart rebuilds the daemon composition
// and requires the same series set in the same order — the byte-stable
// name contract a restart must not break.
func TestMetricsNamesStableAcrossRestart(t *testing.T) {
	names := func() []string {
		ts, _ := daemonServer(t, true)
		exp := scrape(t, ts)
		out := make([]string, 0, len(exp.Samples))
		for _, s := range exp.Samples {
			out = append(out, s.Name+s.Labels)
		}
		return out
	}
	a, b := names(), names()
	if len(a) != len(b) {
		t.Fatalf("series count changed across restart: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series %d changed across restart: %q vs %q", i, a[i], b[i])
		}
	}
}
