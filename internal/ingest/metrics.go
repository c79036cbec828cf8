// The ingest metric catalogue. The counter and gauge names predate the
// registry (cmd/collectord exposed them as a hand-rolled dump), so they
// are frozen: the daemons' exposition tests parse /metrics and assert
// on them by name. Every pipeline-wide family reads one field of
// Pipeline.Stats at render time, so /metrics and /api/v1/stats show one
// census summed in one place; the per-lane families read their lane.
// The hot path carries no extra counters, only the sampled stage
// histograms and the per-lane watermark wired in pipeline.go.
package ingest

import (
	"strconv"
	"time"

	"cwatrace/internal/obs"
)

// pipelineMetrics holds the hot-path instruments. The zero value (all
// nil) is the disabled mode: every Observe is a nil-receiver no-op.
type pipelineMetrics struct {
	// decodeSeconds times PeekSourceID+DecodeInto+dispatch, sampled
	// 1-in-64 datagrams; batchSeconds times one worker commit — the
	// group of batches it found queued (filter+sink) — sampled
	// 1-in-64 commits.
	decodeSeconds *obs.Histogram
	batchSeconds  *obs.Histogram
}

func (m *pipelineMetrics) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.decodeSeconds = reg.Histogram("ingest_decode_seconds",
		"Datagram decode+dispatch latency (sampled 1-in-64).", obs.DurationBuckets)
	m.batchSeconds = reg.Histogram("ingest_batch_seconds",
		"Worker commit latency: filter and one sink commit for every batch queued on the lane, at most 64 (sampled 1-in-64 commits).",
		obs.DurationBuckets)
}

// registerPipelineFuncs wires the render-time samples: the ported
// counter/gauge names from the pre-registry /metrics page and the
// freshness watermark and lag, each one field of Stats, and the
// per-lane queue depth and watermark families. Called from New after
// the lanes exist and before any socket can deliver.
func registerPipelineFuncs(reg *obs.Registry, p *Pipeline) {
	if reg == nil {
		return
	}
	stat := func(pick func(Stats) float64) func() float64 {
		return func() float64 { return pick(p.Stats()) }
	}
	reg.CounterFunc("ingest_packets_total", "NFv9 export datagrams decoded.",
		stat(func(s Stats) float64 { return float64(s.Packets) }))
	reg.CounterFunc("ingest_records_total", "Flow records decoded.",
		stat(func(s Stats) float64 { return float64(s.Records) }))
	reg.CounterFunc("ingest_decode_errors_total", "Datagrams the decoder rejected.",
		stat(func(s Stats) float64 { return float64(s.DecodeErrors) }))
	reg.CounterFunc("ingest_socket_errors_total", "Transient socket receive errors (retried).",
		stat(func(s Stats) float64 { return float64(s.SocketErrors) }))
	reg.CounterFunc("ingest_records_processed_total", "Records workers consumed and handed to the sink.",
		stat(func(s Stats) float64 { return float64(s.Processed) }))
	reg.CounterFunc("ingest_records_dropped_total", "Records dropped under backpressure.",
		stat(func(s Stats) float64 { return float64(s.DroppedRecords) }))
	reg.CounterFunc("ingest_batches_dropped_total", "Batches dropped under backpressure.",
		stat(func(s Stats) float64 { return float64(s.DroppedBatches) }))
	reg.CounterFunc("ingest_records_shard_filtered_total",
		"Processed records discarded by the cluster shard filter (owned elsewhere).",
		stat(func(s Stats) float64 { return float64(s.ShardFiltered) }))
	reg.CounterFunc("ingest_sink_errors_total", "Failed sink appends and flushes.",
		stat(func(s Stats) float64 { return float64(s.SinkErrors) }))
	reg.CounterFunc("ingest_seq_gaps_total", "Export sequence gaps observed across sources.",
		stat(func(s Stats) float64 { return float64(s.SeqGaps) }))
	reg.CounterFunc("ingest_seq_lost_total", "Flow records lost to export sequence gaps.",
		stat(func(s Stats) float64 { return float64(s.SeqLost) }))
	reg.CounterFunc("ingest_seq_reordered_total", "Reordered export packets observed.",
		stat(func(s Stats) float64 { return float64(s.SeqReordered) }))
	reg.GaugeFunc("ingest_sources", "Distinct exporter sources seen.",
		stat(func(s Stats) float64 { return float64(s.Sources) }))

	// Per-lane families: queue depth (batches waiting in the shard
	// channel) and the per-shard freshness watermark.
	for i, lane := range p.lanes {
		shard := obs.L("shard", strconv.Itoa(i))
		l := lane
		reg.GaugeFunc("ingest_shard_queue_depth",
			"Batches queued in the shard channel.", func() float64 {
				return float64(len(l.ch))
			}, shard)
		reg.GaugeFunc("ingest_shard_watermark_timestamp_seconds",
			"Newest record start timestamp this lane consumed (unix seconds; 0 before traffic).",
			func() float64 {
				return float64(l.watermark.Load()) / 1e9
			}, shard)
	}
	reg.GaugeFunc("ingest_watermark_timestamp_seconds",
		"Newest record start timestamp consumed by any lane (unix seconds; 0 before traffic).",
		stat(func(s Stats) float64 { return float64(s.WatermarkUnixNano) / 1e9 }))
	reg.GaugeFunc("ingest_freshness_lag_seconds",
		"Wall clock minus the ingest watermark: how far behind the wire the analytics are (0 before traffic).",
		stat(func(s Stats) float64 {
			if s.WatermarkUnixNano == 0 {
				return 0
			}
			return time.Since(time.Unix(0, s.WatermarkUnixNano)).Seconds()
		}))
}
