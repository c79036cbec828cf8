// The ingest metric catalogue. The counter and gauge names predate the
// registry (cmd/collectord exposed them as a hand-rolled dump), so they
// are frozen: the daemons' exposition tests parse /metrics and assert
// on them by name. Everything reads the pipeline's existing atomics at
// render time — the hot path carries no extra counters, only the
// sampled stage histograms and the per-lane watermark wired in
// pipeline.go.
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
// counter/gauge names from the pre-registry /metrics page, the per-lane
// queue depth and watermark families, and the pipeline-wide freshness
// lag. Called from New after the lanes exist and before any socket can
// deliver.
func registerPipelineFuncs(reg *obs.Registry, p *Pipeline) {
	if reg == nil {
		return
	}
	sumReaders := func(pick func(*reader) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, r := range p.readers {
				n += pick(r)
			}
			return float64(n)
		}
	}
	sumLanes := func(pick func(*shardLane) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, l := range p.lanes {
				n += pick(l)
			}
			return float64(n)
		}
	}
	reg.CounterFunc("ingest_packets_total", "NFv9 export datagrams decoded.",
		sumReaders(func(r *reader) uint64 { return r.packets.Load() }))
	reg.CounterFunc("ingest_records_total", "Flow records decoded.",
		sumReaders(func(r *reader) uint64 { return r.records.Load() }))
	reg.CounterFunc("ingest_decode_errors_total", "Datagrams the decoder rejected.",
		sumReaders(func(r *reader) uint64 { return r.decodeErrors.Load() }))
	reg.CounterFunc("ingest_socket_errors_total", "Transient socket receive errors (retried).",
		sumReaders(func(r *reader) uint64 { return r.socketErrors.Load() }))
	reg.CounterFunc("ingest_records_processed_total", "Records workers consumed and handed to the sink.",
		sumLanes(func(l *shardLane) uint64 { return l.processed.Load() }))
	reg.CounterFunc("ingest_records_dropped_total", "Records dropped under backpressure.",
		sumLanes(func(l *shardLane) uint64 { return l.droppedRecords.Load() }))
	reg.CounterFunc("ingest_batches_dropped_total", "Batches dropped under backpressure.",
		sumLanes(func(l *shardLane) uint64 { return l.droppedBatches.Load() }))
	reg.CounterFunc("ingest_records_shard_filtered_total",
		"Processed records discarded by the cluster shard filter (owned elsewhere).",
		sumLanes(func(l *shardLane) uint64 { return l.shardFiltered.Load() }))
	reg.CounterFunc("ingest_sink_errors_total", "Failed sink appends and flushes.",
		func() float64 {
			var n uint64
			for _, l := range p.lanes {
				n += l.sinkErrors.Load()
			}
			return float64(n + p.flushErrors.Load())
		})

	// The sequence-audit family walks every source's decoder state under
	// the reader locks — render-cadence work, same as Stats.
	seq := func(pick func(gaps int, lost uint64, reordered int) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, r := range p.readers {
				r.mu.Lock()
				for _, dec := range r.sources {
					total += pick(dec.SequenceStats())
				}
				r.mu.Unlock()
			}
			return total
		}
	}
	reg.CounterFunc("ingest_seq_gaps_total", "Export sequence gaps observed across sources.",
		seq(func(g int, _ uint64, _ int) float64 { return float64(g) }))
	reg.CounterFunc("ingest_seq_lost_total", "Flow records lost to export sequence gaps.",
		seq(func(_ int, l uint64, _ int) float64 { return float64(l) }))
	reg.CounterFunc("ingest_seq_reordered_total", "Reordered export packets observed.",
		seq(func(_ int, _ uint64, r int) float64 { return float64(r) }))
	reg.GaugeFunc("ingest_sources", "Distinct exporter sources seen.", func() float64 {
		var n int
		for _, r := range p.readers {
			r.mu.Lock()
			n += len(r.sources)
			r.mu.Unlock()
		}
		return float64(n)
	})

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
	watermark := func() int64 {
		var wm int64
		for _, l := range p.lanes {
			if v := l.watermark.Load(); v > wm {
				wm = v
			}
		}
		return wm
	}
	reg.GaugeFunc("ingest_watermark_timestamp_seconds",
		"Newest record start timestamp consumed by any lane (unix seconds; 0 before traffic).",
		func() float64 { return float64(watermark()) / 1e9 })
	reg.GaugeFunc("ingest_freshness_lag_seconds",
		"Wall clock minus the ingest watermark: how far behind the wire the analytics are (0 before traffic).",
		func() float64 {
			wm := watermark()
			if wm == 0 {
				return 0
			}
			return time.Since(time.Unix(0, wm)).Seconds()
		})
}
