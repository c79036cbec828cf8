package ingest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// encodePackets renders n export packets of recordsPer records each, all
// from one synthetic source, with valid templates and sequence numbers.
// newLoopReader registers a reader with no socket. Benchmarks and the
// backpressure tests feed it through handleDatagram, measuring the decode
// and dispatch path without UDP in the way. Call before any traffic flows.
func (p *Pipeline) newLoopReader() *reader {
	r := &reader{sources: make(map[sourceKey]*nfv9.Decoder)}
	p.readers = append(p.readers, r)
	return r
}

func encodePackets(t testing.TB, n, recordsPer int) [][]byte {
	t.Helper()
	enc := nfv9.NewEncoder(1)
	exportTime := time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC)
	out := make([][]byte, n)
	for i := range out {
		recs := make([]netflow.Record, recordsPer)
		for j := range recs {
			recs[j] = testRecord(i*recordsPer + j)
		}
		pkt, err := enc.Encode(recs, exportTime)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out[i] = pkt
	}
	return out
}

// testRecord fabricates a plausible downstream HTTPS record.
func testRecord(i int) netflow.Record {
	first := time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond)
	return netflow.Record{
		Key: netflow.Key{
			Src:     netip.AddrFrom4([4]byte{198, 51, 100, 10}),
			Dst:     netip.AddrFrom4([4]byte{100, byte(i >> 16), byte(i >> 8), byte(i)}),
			SrcPort: 443,
			DstPort: uint16(50000 + i%10000),
			Proto:   netflow.ProtoTCP,
		},
		Packets:  3,
		Bytes:    4096,
		First:    first,
		Last:     first.Add(time.Second),
		Exporter: "ISP/XX-000",
	}
}

// storeSink opens a store in a temp dir for a pipeline to feed: the one
// owner of the aggregates, as in collectord.
func storeSink(t testing.TB, acfg streaming.Config) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Analytics: acfg, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestBackpressureBoundedAndAccounted overloads a tiny pipeline with slow
// consumers and asserts the two properties overload must not break: queued
// memory stays bounded by the shard buffers (the dispatcher drops instead
// of queueing), and every record is accounted for once the pipeline
// drains — received = processed + dropped, and what the store holds =
// processed - shard-filtered — with and without a shard filter, at 1, 2
// and 4 workers. Runs under -race via `make race`.
func TestBackpressureBoundedAndAccounted(t *testing.T) {
	const (
		shardBuf   = 2
		packets    = 600
		recsPerPkt = 10
	)
	pkts := encodePackets(t, packets, recsPerPkt)
	for _, c := range []struct {
		workers int
		filter  func(*netflow.Record) bool
	}{
		{2, nil},
		{1, dropEveryFourthPacket(recsPerPkt)},
		{4, dropEveryFourthPacket(recsPerPkt)},
	} {
		st := storeSink(t, streaming.Config{})
		p, err := New(Config{
			Workers:     c.workers,
			ShardBuffer: shardBuf,
			Sink:        st,
			ShardFilter: c.filter,
			workerDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := p.newLoopReader()

		// Queued records can never exceed the channels plus one in-flight
		// commit group per worker. A group is usually the batch the worker
		// waited for plus what its lane held, but the dispatcher may refill
		// the lane while the worker drains it, so only maxCommitGroup is a
		// hard limit — still a fraction of the packets*recsPerPkt on offer.
		bound := uint64(c.workers * (shardBuf + maxCommitGroup) * recsPerPkt)

		for i, pkt := range pkts {
			p.handleDatagram(r, "203.0.113.7:2055", pkt)
			if i%25 == 0 {
				s := p.Stats()
				if queued := s.Records - s.Processed - s.DroppedRecords; queued > bound {
					t.Fatalf("workers=%d: queued %d records exceeds bound %d", c.workers, queued, bound)
				}
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		s := p.Stats()
		if s.Records != packets*recsPerPkt {
			t.Fatalf("workers=%d: decoded %d records, want %d", c.workers, s.Records, packets*recsPerPkt)
		}
		if s.DroppedRecords == 0 {
			t.Fatalf("workers=%d: overloaded pipeline dropped nothing; backpressure path untested", c.workers)
		}
		if s.Processed+s.DroppedRecords != s.Records {
			t.Fatalf("workers=%d: accounting leak: processed %d + dropped %d != received %d",
				c.workers, s.Processed, s.DroppedRecords, s.Records)
		}
		if s.DroppedBatches*recsPerPkt != s.DroppedRecords {
			t.Fatalf("workers=%d: dropped %d batches but %d records (want %d per batch)",
				c.workers, s.DroppedBatches, s.DroppedRecords, recsPerPkt)
		}
		if (c.filter == nil) != (s.ShardFiltered == 0) {
			t.Fatalf("workers=%d: %d records shard-filtered", c.workers, s.ShardFiltered)
		}
		// The store holds exactly the processed records this node owns.
		if got := uint64(st.Snapshot().Census.Total); got != s.Processed-s.ShardFiltered {
			t.Fatalf("workers=%d: store holds %d records, processed %d - filtered %d",
				c.workers, got, s.Processed, s.ShardFiltered)
		}
	}
}

// TestUDPRoundTripCounters exercises the socket path directly: packets in
// over loopback UDP, decoded records visible in stats and in the store.
func TestUDPRoundTripCounters(t *testing.T) {
	st := storeSink(t, streaming.Config{})
	p, err := New(Config{Listen: []string{"127.0.0.1:0"}, Workers: 2, Sink: st})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	recs := make([]netflow.Record, 37)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	exp, err := nfv9.NewExporter(p.Addrs()[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Export(recs, recs[0].Last); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := p.Stats(); s.Records == uint64(len(recs)) && p.Drained() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := p.Stats()
	if s.Records != uint64(len(recs)) || s.Sources != 1 {
		t.Fatalf("stats after export: %+v", s)
	}
	// The fabricated records come from a non-CWA prefix, so they land in
	// the census as drops — proof the filter ran over the socket path.
	snap := st.Snapshot()
	if snap.Census.Total != len(recs) {
		t.Fatalf("census total %d, want %d", snap.Census.Total, len(recs))
	}
}

// TestMultiDomainSourceScoping interleaves two observation domains from
// one sender address (a router exporting several SourceIDs over one
// socket, RFC 3954's scoping case) and asserts the per-domain decoders
// keep independent sequence spaces — no phantom gaps or reorders.
func TestMultiDomainSourceScoping(t *testing.T) {
	p, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()

	encA, encB := nfv9.NewEncoder(1), nfv9.NewEncoder(2)
	exportTime := time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		enc := encA
		if i%2 == 1 {
			enc = encB
		}
		pkt, err := enc.Encode([]netflow.Record{testRecord(i)}, exportTime)
		if err != nil {
			t.Fatal(err)
		}
		p.handleDatagram(r, "203.0.113.9:2055", pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Sources != 2 {
		t.Fatalf("sources = %d, want 2 (one per observation domain)", s.Sources)
	}
	if s.SeqGaps != 0 || s.SeqReordered != 0 || s.DecodeErrors != 0 {
		t.Fatalf("interleaved domains corrupted the audit: %+v", s)
	}
	if s.Records != 20 {
		t.Fatalf("records = %d, want 20", s.Records)
	}
}

// TestGarbageDatagramsAllocateNoState floods the pipeline with non-NFv9
// and undecodable datagrams from many spoofed sources and asserts no
// per-source decoder state is retained — the map only grows for sources
// whose packets actually decode.
func TestGarbageDatagramsAllocateNoState(t *testing.T) {
	p, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()
	for i := 0; i < 200; i++ {
		from := fmt.Sprintf("198.18.%d.%d:9", i/256, i%256)
		// Too short, wrong version, and valid-header-but-corrupt-body.
		p.handleDatagram(r, from, []byte{9, 9, 9})
		p.handleDatagram(r, from, make([]byte, 24)) // version 0
		bad := encodePackets(t, 1, 1)[0]
		bad[22], bad[23] = 0xFF, 0xFF // corrupt flowset length
		p.handleDatagram(r, from, bad)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Sources != 0 {
		t.Fatalf("garbage datagrams retained %d sources, want 0", s.Sources)
	}
	if s.DecodeErrors != 600 {
		t.Fatalf("decode errors = %d, want 600", s.DecodeErrors)
	}
}

// TestPipelineConfigDefaults pins the sizing defaults the docs promise.
func TestPipelineConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers < 1 || cfg.ShardBuffer != 256 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// TestReplayNoAddr pins the error path.
func TestReplayNoAddr(t *testing.T) {
	if _, err := Replay(nil, nil, ReplayConfig{}); err == nil {
		t.Fatal("replay with no addresses must fail")
	}
}

// TestPipelineKeepsNoAnalytics holds the pipeline to counting: the store
// it feeds owns every aggregate, so no non-test file of the package
// builds an analytics ring or reads the two Config fields kept only
// until the benchmark stops setting them.
func TestPipelineKeepsNoAnalytics(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "streaming" && sel.Sel.Name == "New" {
				t.Errorf("%s: calls streaming.New", fset.Position(sel.Pos()))
			}
			if sel.Sel.Name == "SinkOnly" || sel.Sel.Name == "Analytics" {
				t.Errorf("%s: reads %s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
