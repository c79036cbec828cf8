package ingest

import (
	"fmt"
	"sync"
	"testing"

	"cwatrace/internal/obs"
)

// BenchmarkIngestPipeline measures the collector's decode→dispatch→commit
// path — records/sec through the pipeline with no sink, without UDP in
// the loop — at one worker (serial) versus the full worker pool, with
// one feeding goroutine per simulated socket. What the store adds per
// record is the store package's own benchmark.
func BenchmarkIngestPipeline(b *testing.B) {
	const (
		feeders    = 4
		pktsPerSrc = 500
		recsPerPkt = 18 // one full MTU-sized datagram
	)
	// Pre-encode each simulated socket's packet stream once; the decoder
	// keeps per-source state, so each feeder gets its own source.
	streams := make([][][]byte, feeders)
	for f := range streams {
		streams[f] = encodePackets(b, pktsPerSrc, recsPerPkt)
	}

	// The instrumented modes run with a live metrics registry (sampled
	// stage histograms, per-lane gauges, watermark) AND the flight
	// recorder (span tracer + event ring) — cmd/obsgate compares them
	// against the obs.Disabled baselines to prove the full
	// observability overhead, tracing included, stays under 3%.
	modes := []struct {
		name       string
		workers    int
		feeders    int
		registries bool
	}{
		{"serial", 1, 1, false},
		{"parallel", 0, feeders, false}, // 0 = NumCPU workers
		{"serial_instrumented", 1, 1, true},
		{"parallel_instrumented", 0, feeders, true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			records := mode.feeders * pktsPerSrc * recsPerPkt
			// One pipeline for the whole run: construction (and, when
			// instrumented, the registry with its ~40 family registrations)
			// is start-up cost, not per-record cost, so it stays outside
			// the measured loop. Each iteration replays every stream once;
			// per-source decoder state reaches steady state after the first
			// pass.
			var (
				reg    *obs.Registry
				tracer *obs.Tracer
				events *obs.EventRing
			)
			if mode.registries {
				reg = obs.NewRegistry()
				tracer = obs.NewTracer(obs.TracerConfig{})
				events = obs.NewEventRing(0)
			}
			p, err := New(Config{Workers: mode.workers, ShardBuffer: 4096,
				Metrics: reg, Tracer: tracer, Events: events})
			if err != nil {
				b.Fatal(err)
			}
			readers := make([]*reader, mode.feeders)
			for f := range readers {
				readers[f] = p.newLoopReader()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for f := 0; f < mode.feeders; f++ {
					from := fmt.Sprintf("203.0.113.%d:2055", f+1)
					wg.Add(1)
					go func(r *reader, stream [][]byte) {
						defer wg.Done()
						for _, pkt := range stream {
							p.handleDatagram(r, from, pkt)
						}
					}(readers[f], streams[f])
				}
				wg.Wait()
			}
			b.StopTimer()
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			if s := p.Stats(); s.Processed+s.DroppedRecords != uint64(records*b.N) {
				b.Fatalf("lost records: %+v", s)
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
