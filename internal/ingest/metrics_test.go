package ingest

import (
	"strings"
	"testing"
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/store"
)

// TestPipelineMetricsExposition runs real traffic through an
// instrumented pipeline and requires the rendered /metrics page to pass
// the strict exposition lint with values that agree with Stats — the
// ported counter names are frozen (the pre-registry collectord dump),
// and the watermark family must reflect the newest record consumed.
func TestPipelineMetricsExposition(t *testing.T) {
	const (
		packets    = 130 // > 2*64: at 1-in-64 sampling the decode histogram sees >= 2 observations
		recsPerPkt = 12
	)
	reg := obs.NewRegistry()
	p, err := New(Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()
	for _, pkt := range encodePackets(t, packets, recsPerPkt) {
		p.handleDatagram(r, "203.0.113.9:2055", pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Records != packets*recsPerPkt || s.Processed != s.Records {
		t.Fatalf("unexpected stats: %+v", s)
	}

	// Watermark: the newest record in the stream is the last one
	// encoded; the lane watermark must have reached it.
	want := testRecord(packets*recsPerPkt - 1).First.UnixNano()
	if s.WatermarkUnixNano != want {
		t.Errorf("WatermarkUnixNano = %d, want %d", s.WatermarkUnixNano, want)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(sb.String())
	for _, err := range errs {
		t.Errorf("lint: %v", err)
	}
	checks := []struct {
		name, labels string
		want         float64
	}{
		{"ingest_packets_total", "", packets},
		{"ingest_records_total", "", packets * recsPerPkt},
		{"ingest_records_processed_total", "", packets * recsPerPkt},
		{"ingest_records_dropped_total", "", 0},
		{"ingest_batches_dropped_total", "", 0},
		{"ingest_records_shard_filtered_total", "", 0},
		{"ingest_decode_errors_total", "", 0},
		{"ingest_sink_errors_total", "", 0},
		{"ingest_sources", "", 1},
		{"ingest_watermark_timestamp_seconds", "", float64(want) / 1e9},
	}
	for _, c := range checks {
		if got, ok := exp.Value(c.name, c.labels); !ok || got != c.want {
			t.Errorf("%s%s = %v (present=%v), want %v", c.name, c.labels, got, ok, c.want)
		}
	}
	// Per-lane families exist for both shards, and the freshness lag is
	// positive (the synthetic trace is from 2020).
	for _, shard := range []string{`{shard="0"}`, `{shard="1"}`} {
		if _, ok := exp.Value("ingest_shard_queue_depth", shard); !ok {
			t.Errorf("missing ingest_shard_queue_depth%s", shard)
		}
		if _, ok := exp.Value("ingest_shard_watermark_timestamp_seconds", shard); !ok {
			t.Errorf("missing ingest_shard_watermark_timestamp_seconds%s", shard)
		}
	}
	if lag, ok := exp.Value("ingest_freshness_lag_seconds", ""); !ok || lag <= 0 {
		t.Errorf("ingest_freshness_lag_seconds = %v (present=%v), want > 0", lag, ok)
	}
	// The sampled stage histograms saw traffic: 130 datagrams at 1-in-64
	// sampling observes at least two decodes.
	if v, ok := exp.Value("ingest_decode_seconds_count", ""); !ok || v < 2 {
		t.Errorf("ingest_decode_seconds_count = %v (present=%v), want >= 2", v, ok)
	}
	if v, ok := exp.Value("ingest_batch_seconds_count", ""); !ok || v < 1 {
		t.Errorf("ingest_batch_seconds_count = %v (present=%v), want >= 1", v, ok)
	}

	t.Run("census", testPipelineCensus)
}

// testPipelineCensus drives every census counter but the socket's off
// zero — a garbage datagram, backpressure drops behind slow workers,
// the shard filter, a failing sink, skipped and swapped sequence
// numbers, a second source — and requires each family to read exactly
// its Stats field.
func testPipelineCensus(t *testing.T) {
	const recsPerPkt = 12
	reg := obs.NewRegistry()
	p, err := New(Config{
		Workers:     2,
		ShardBuffer: 1,
		Sink:        &flakySink{},
		ShardFilter: dropEveryFourthPacket(recsPerPkt),
		Metrics:     reg,
		workerDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()
	pkts := encodePackets(t, 40, recsPerPkt)
	p.handleDatagram(r, "203.0.113.9:2055", []byte("not a v9 packet"))
	// Round robin puts packets 0 and 1 on empty lanes, so both are
	// processed: packet 0 is shard-filtered whole, packet 1 reaches the
	// sink, whose first commit fails. The lanes hold one batch each and
	// the workers sleep, so the packets after them are mostly dropped.
	// Packet 5 never arrives (a gap, one lost) and 11 comes before 10
	// (two gaps, a reorder, and the loss 11 charged is credited back).
	for i, pkt := range pkts {
		switch i {
		case 5:
		case 10:
			p.handleDatagram(r, "203.0.113.9:2055", pkts[11])
		case 11:
			p.handleDatagram(r, "203.0.113.9:2055", pkts[10])
		default:
			p.handleDatagram(r, "203.0.113.9:2055", pkt)
		}
	}
	p.handleDatagram(r, "203.0.113.10:2055", pkts[0])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.SeqGaps != 3 || s.SeqLost != 1 || s.SeqReordered != 1 || s.Sources != 2 || s.DecodeErrors != 1 {
		t.Fatalf("sequence audit %+v, want 3 gaps, 1 lost, 1 reordered over 2 sources", s)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(sb.String())
	for _, err := range errs {
		t.Errorf("lint: %v", err)
	}
	census := map[string]float64{
		"ingest_packets_total":                float64(s.Packets),
		"ingest_records_total":                float64(s.Records),
		"ingest_decode_errors_total":          float64(s.DecodeErrors),
		"ingest_records_processed_total":      float64(s.Processed),
		"ingest_records_dropped_total":        float64(s.DroppedRecords),
		"ingest_batches_dropped_total":        float64(s.DroppedBatches),
		"ingest_records_shard_filtered_total": float64(s.ShardFiltered),
		"ingest_sink_errors_total":            float64(s.SinkErrors),
		"ingest_seq_gaps_total":               float64(s.SeqGaps),
		"ingest_seq_lost_total":               float64(s.SeqLost),
		"ingest_seq_reordered_total":          float64(s.SeqReordered),
		"ingest_sources":                      float64(s.Sources),
		"ingest_watermark_timestamp_seconds":  float64(s.WatermarkUnixNano) / 1e9,
	}
	for name, want := range census {
		if want == 0 {
			t.Errorf("%s: Stats reads 0, so the page is not checked against a count", name)
		}
		if got, ok := exp.Value(name, ""); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
}

// TestStreamingWatermark pins the analytics-level watermark of the store
// the pipeline feeds: it tracks the newest binned record, in the live
// tail and after a checkpoint has merged the tail into the frames.
func TestStreamingWatermark(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := New(Config{Workers: 1, Sink: st})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()
	for _, pkt := range encodePackets(t, 10, 5) {
		p.handleDatagram(r, "203.0.113.9:2055", pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	want := float64(testRecord(10*5-1).First.UnixNano()) / 1e9
	check := func(when string) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		exp, _ := obs.Lint(sb.String())
		if got, ok := exp.Value("store_watermark_timestamp_seconds", ""); !ok || got != want {
			t.Errorf("%s: store watermark = %v (present=%v), want %v", when, got, ok, want)
		}
	}
	check("in the tail")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint")
}
