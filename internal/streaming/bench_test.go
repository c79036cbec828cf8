package streaming

import (
	"testing"

	"cwatrace/internal/sim"
)

// simCapture is the simulated capture the benchmarks run on.
func simCapture(b *testing.B) *sim.Result {
	cfg := sim.DefaultConfig()
	cfg.Scale = 3000
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTailIngest measures what a store tail costs per record over a
// simulated capture, with and without the geolocation sidecar every
// collector runs with: one fresh shard per op, as each checkpoint
// starts one, ingesting the whole trace. ns/record is the figure to read.
func BenchmarkTailIngest(b *testing.B) {
	res := simCapture(b)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"geodb", Config{DB: res.GeoDB, Model: res.Model}},
		{"no-geodb", Config{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var a *Analytics
			for i := 0; i < b.N; i++ {
				a = New(c.cfg)
				a.Ingest(res.Records)
			}
			b.StopTimer()
			if c.cfg.DB != nil && a.located == 0 {
				b.Fatal("the sidecar located no record")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(res.Records)), "ns/record")
		})
	}
}

// BenchmarkShardSnapshot measures a lone shard's Snapshot over the same
// capture, ingested with the sidecar into a shard never bound to a prefix
// table: the live view rendered from the shard's own series and counters.
func BenchmarkShardSnapshot(b *testing.B) {
	res := simCapture(b)
	a := New(Config{DB: res.GeoDB, Model: res.Model})
	a.Ingest(res.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Snapshot()
	}
}
