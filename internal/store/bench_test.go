package store

import (
	"fmt"
	"testing"
	"time"

	"cwatrace/internal/netflow"
)

// benchBatch builds one export-sized batch landing in hour h.
func benchBatch(h, salt, n int) []netflow.Record {
	batch := make([]netflow.Record, n)
	for i := range batch {
		batch[i] = keptRecord(h, salt*n+i, uint64(400+i))
	}
	return batch
}

// BenchmarkStoreAppend measures the durable append path (encode + CRC +
// write-through + tail fold) per sync policy. The interval policy is the
// production default: fsync rides the pipeline's flush hook, not the
// append path, so it benches like SyncNever. always/group=32 commits 32
// batches per AppendGroup — what a pipeline worker does with a backed-up
// lane — against always committing them one by one: same records, same
// WAL bytes, one write and one fsync per 32 batches.
func BenchmarkStoreAppend(b *testing.B) {
	const perBatch = 25
	for _, c := range []struct {
		name  string
		pol   SyncPolicy
		group int
	}{
		{"never", SyncNever, 1},
		{"always", SyncAlways, 1},
		{"always/group=32", SyncAlways, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Analytics: testConfig(), Sync: c.pol})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			group := make([][]netflow.Record, c.group)
			for i := range group {
				group[i] = benchBatch(1, i, perBatch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.group == 1 {
					err = s.Append(group[0])
				} else {
					err = s.AppendGroup(group)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*c.group*perBatch)/elapsed.Seconds(), "records/s")
			}
		})
	}
}

// BenchmarkQueryRange measures historical range queries against a store
// holding many checkpoint frames: sub-ranges load only the overlapping
// frames, the full range merges everything.
func BenchmarkQueryRange(b *testing.B) {
	const (
		frames     = 16
		hoursPer   = 3
		batchesPer = 8
		perBatch   = 25
	)
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for f := 0; f < frames; f++ {
		for i := 0; i < batchesPer; i++ {
			if err := s.Append(benchBatch(f*hoursPer+i%hoursPer, f*batchesPer+i, perBatch)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	origin := s.Config().Origin

	for _, span := range []int{hoursPer, frames * hoursPer / 2, frames * hoursPer} {
		b.Run(fmt.Sprintf("span=%dh", span), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				from := origin.Add(time.Duration(i*hoursPer%(frames*hoursPer-span+1)) * time.Hour)
				res, err := s.Query(from, from.Add(time.Duration(span)*time.Hour))
				if err != nil {
					b.Fatal(err)
				}
				if res.Frames == 0 {
					b.Fatal("query selected no frames")
				}
			}
		})
	}
}
