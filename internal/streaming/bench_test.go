package streaming

import (
	"testing"

	"cwatrace/internal/sim"
)

// BenchmarkTailIngest measures what a store tail costs per record over a
// simulated capture, with and without the geolocation sidecar every
// collector runs with: one fresh shard per op, as each checkpoint
// starts one, ingesting the whole trace. ns/record is the figure to read.
func BenchmarkTailIngest(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scale = 3000
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
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
