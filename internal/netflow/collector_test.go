package netflow

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"cwatrace/internal/cryptopan"
	"cwatrace/internal/netsim"
)

func testAnonymizer(t *testing.T) *cryptopan.Anonymizer {
	t.Helper()
	key := make([]byte, cryptopan.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	a, err := cryptopan.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func rec(src, dst string, at time.Time) Record {
	return Record{
		Key: Key{
			Src:     netip.MustParseAddr(src),
			Dst:     netip.MustParseAddr(dst),
			SrcPort: 443, DstPort: 51000, Proto: ProtoTCP,
		},
		Packets: 1, Bytes: 100, First: at, Last: at, Exporter: "r1",
	}
}

func TestCollectorAnonymizesClientsOnly(t *testing.T) {
	c := NewCollector(testAnonymizer(t), netsim.IsCWAServer)
	server := "198.51.100.10"
	client := "20.0.1.5"
	c.Ingest([]Record{rec(server, client, t0)})
	got := c.Records()
	if len(got) != 1 {
		t.Fatalf("records = %d", len(got))
	}
	if got[0].Src.String() != server {
		t.Fatalf("server address must stay intact, got %s", got[0].Src)
	}
	if got[0].Dst.String() == client {
		t.Fatal("client address must be anonymized")
	}
}

func TestCollectorPrefixPreservationSurvives(t *testing.T) {
	c := NewCollector(testAnonymizer(t), netsim.IsCWAServer)
	c.Ingest([]Record{
		rec("198.51.100.10", "20.0.1.5", t0),
		rec("198.51.100.10", "20.0.1.77", t0.Add(time.Second)),
		rec("198.51.100.10", "21.9.9.9", t0.Add(2*time.Second)),
	})
	got := c.Records()
	p := netip.PrefixFrom(got[0].Dst, 24).Masked()
	if !p.Contains(got[1].Dst) {
		t.Fatal("same-/24 clients must stay in one anonymized /24")
	}
	if p.Contains(got[2].Dst) {
		t.Fatal("different-prefix client must map elsewhere")
	}
}

func TestCollectorNilAnonymizer(t *testing.T) {
	c := NewCollector(nil, nil)
	c.Ingest([]Record{rec("198.51.100.10", "20.0.1.5", t0)})
	if got := c.Records(); got[0].Dst.String() != "20.0.1.5" {
		t.Fatal("nil anonymizer must pass addresses through")
	}
}

func TestCollectorNilKeepAnonymizesEverything(t *testing.T) {
	c := NewCollector(testAnonymizer(t), nil)
	c.Ingest([]Record{rec("198.51.100.10", "20.0.1.5", t0)})
	got := c.Records()
	if got[0].Src.String() == "198.51.100.10" {
		t.Fatal("nil keep must anonymize server addresses too")
	}
}

func TestCollectorSortsByTime(t *testing.T) {
	c := NewCollector(nil, nil)
	c.Ingest([]Record{
		rec("198.51.100.10", "20.0.1.5", t0.Add(5*time.Second)),
		rec("198.51.100.10", "20.0.1.6", t0),
		rec("198.51.100.10", "20.0.1.7", t0.Add(2*time.Second)),
	})
	got := c.Records()
	for i := 1; i < len(got); i++ {
		if got[i].First.Before(got[i-1].First) {
			t.Fatal("records not time ordered")
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestCollectorRecordsIsStableSort holds Records to its contract on records
// it cannot tell apart: equal start, exporter and key, different counters.
// The result must equal a stable sort of the shards' concatenation, so
// ties stay in shard order and, within a shard, in ingestion order.
func TestCollectorRecordsIsStableSort(t *testing.T) {
	c := NewCollector(nil, nil)
	c.Resize(5)
	rng := rand.New(rand.NewSource(7))
	var want []Record
	for i := 0; i < c.NumShards(); i++ {
		var batch []Record
		for j := 0; j < 300; j++ {
			r := rec("198.51.100.10", fmt.Sprintf("20.0.1.%d", rng.Intn(3)), t0.Add(time.Duration(rng.Intn(4))*time.Second))
			r.Exporter = fmt.Sprintf("r%d", rng.Intn(2))
			r.Packets = uint64(i*1000 + j)
			r.Bytes = uint64(rng.Intn(1 << 20))
			r.Last = r.First.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			batch = append(batch, r)
		}
		c.Shard(i).Ingest(batch[:100])
		c.Shard(i).Ingest(batch[100:])
		want = append(want, batch...)
	}
	sort.SliceStable(want, func(i, j int) bool { return RecordLess(&want[i], &want[j]) })
	got := c.Records()
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if c.Len() != len(want) {
		t.Fatalf("Len after Records = %d, want %d", c.Len(), len(want))
	}
}

// BenchmarkCollectorRecords measures the final sort of a simulated
// capture's shape: 401 district shards whose records arrive in hourly
// sweeps, each sweep in cache order rather than time order. Building the
// shards is outside the timer.
func BenchmarkCollectorRecords(b *testing.B) {
	const shards, hours, perHour = 401, 24, 20
	rng := rand.New(rand.NewSource(1))
	batches := make([][]Record, shards)
	for i := range batches {
		for h := 0; h < hours; h++ {
			for j := 0; j < perHour; j++ {
				at := t0.Add(time.Duration(h)*time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
				r := rec("198.51.100.10", fmt.Sprintf("20.%d.%d.%d", i/256, i%256, rng.Intn(256)), at)
				r.Exporter = fmt.Sprintf("r%d", i)
				batches[i] = append(batches[i], r)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewCollector(nil, nil)
		c.Resize(shards)
		for s, batch := range batches {
			c.Shard(s).Ingest(batch)
		}
		b.StartTimer()
		if got := c.Records(); len(got) != shards*hours*perHour {
			b.Fatalf("records = %d", len(got))
		}
	}
}
