package ingest

import (
	"bytes"
	"encoding/json"
	"testing"

	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// TestShardFilterPartitionsExactly feeds one identical packet stream to
// an unfiltered pipeline and to two complementary shard-filtered ones,
// then checks the cluster contract at the ingest layer: the filters
// split the stream disjointly and exhaustively (every record counted
// once as kept-or-ShardFiltered), the drain invariant is untouched, and
// merging the two shard stores' snapshots reproduces the unfiltered
// store's snapshot byte for byte.
func TestShardFilterPartitionsExactly(t *testing.T) {
	const (
		packets    = 40
		recsPerPkt = 25
	)
	shardOf := func(r *netflow.Record) int {
		b := r.Key.Dst.As4()
		return int(b[3]) % 2
	}
	stores := make(map[*Pipeline]*store.Store)
	newPipe := func(filter func(*netflow.Record) bool) *Pipeline {
		st := storeSink(t, streaming.Config{})
		p, err := New(Config{Workers: 2, ShardBuffer: 1024, ShardFilter: filter, Sink: st})
		if err != nil {
			t.Fatal(err)
		}
		stores[p] = st
		return p
	}
	full := newPipe(nil)
	shard0 := newPipe(func(r *netflow.Record) bool { return shardOf(r) == 0 })
	shard1 := newPipe(func(r *netflow.Record) bool { return shardOf(r) == 1 })
	pipes := []*Pipeline{full, shard0, shard1}

	pkts := encodePackets(t, packets, recsPerPkt)
	for _, p := range pipes {
		r := p.newLoopReader()
		for _, pkt := range pkts {
			p.handleDatagram(r, "203.0.113.7:2055", pkt)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Records != packets*recsPerPkt || s.DroppedRecords != 0 {
			t.Fatalf("lossy feed: %+v", s)
		}
		if s.Processed != s.Records {
			t.Fatalf("drain invariant broke under filtering: processed %d of %d", s.Processed, s.Records)
		}
	}

	fs, s0, s1 := full.Stats(), shard0.Stats(), shard1.Stats()
	if fs.ShardFiltered != 0 {
		t.Fatalf("unfiltered pipeline filtered %d records", fs.ShardFiltered)
	}
	if s0.ShardFiltered+s1.ShardFiltered != fs.Records {
		t.Fatalf("filtered counts not complementary: %d + %d != %d",
			s0.ShardFiltered, s1.ShardFiltered, fs.Records)
	}
	if s0.ShardFiltered == 0 || s1.ShardFiltered == 0 {
		t.Fatal("one shard filtered nothing; partition untested")
	}

	snapFull, snap0, snap1 := stores[full].Snapshot(), stores[shard0].Snapshot(), stores[shard1].Snapshot()
	if got := s0.ShardFiltered + uint64(snap0.Census.Total); got != fs.Records {
		t.Fatalf("shard 0 accounting: filtered %d + analyzed %d != %d",
			s0.ShardFiltered, snap0.Census.Total, fs.Records)
	}
	if snap0.Census.Total+snap1.Census.Total != snapFull.Census.Total {
		t.Fatalf("census split %d + %d != %d", snap0.Census.Total, snap1.Census.Total, snapFull.Census.Total)
	}

	// The shards merge back into exactly the unfiltered state.
	m := streaming.New(streaming.Config{Origin: snapFull.Origin, WindowHours: snapFull.WindowHours})
	m.Merge(streaming.FromSnapshot(snap0))
	m.Merge(streaming.FromSnapshot(snap1))
	want, err := json.Marshal(snapFull)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged shard snapshots differ from unfiltered snapshot\n got: %.300s\nwant: %.300s", got, want)
	}
}
