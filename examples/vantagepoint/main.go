// Vantagepoint demonstrates the measurement infrastructure of the paper's
// data set end to end, over the real wire protocol: a router observes
// packets through a sampled flow cache, exports the records as NetFlow v9
// datagrams over UDP, the ingest pipeline decodes them, client addresses are
// prefix-preserving anonymized, and the paper's filter reduces the stream
// to the measured data set.
//
// Run with: go run ./examples/vantagepoint
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/cryptopan"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/netsim"
	"cwatrace/internal/nfv9"
)

// collected is the pipeline's sink: it keeps a copy of every batch (the
// pipeline recycles the storage it hands over).
type collected struct {
	mu   sync.Mutex
	recs []netflow.Record
}

func (c *collected) Append(batch []netflow.Record) error {
	c.mu.Lock()
	c.recs = append(c.recs, batch...)
	c.mu.Unlock()
	return nil
}

func main() {
	// --- The collector side (BENOCS, in the paper): the same pipeline
	// collectord runs, with the records themselves as its only state. ---
	received := &collected{}
	collector, err := ingest.New(ingest.Config{
		Listen:   []string{"127.0.0.1:0"},
		Workers:  1,
		Sink:     received,
		SinkOnly: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NetFlow v9 collector listening on %s\n", collector.Addrs()[0])

	// --- The router side: flow cache with 1:8 packet sampling. ---
	cfg := netflow.DefaultConfig()
	cfg.SampleRate = 8
	rng := rand.New(rand.NewSource(1))
	cache, err := netflow.NewCache("Magenta/BE-000", cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	exporter, err := nfv9.NewExporter(collector.Addrs()[0], 64500)
	if err != nil {
		log.Fatal(err)
	}
	defer exporter.Close()

	// Synthesize an hour of mixed traffic: CWA downloads, website visits,
	// unrelated flows the filter must drop.
	start := time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC)
	edge := netsim.CDNAddr(3)
	var pending []netflow.Record
	for c := 0; c < 400; c++ {
		client := netip.AddrFrom4([4]byte{20, 0, byte(c >> 4), byte(1 + c%200)})
		at := start.Add(time.Duration(c) * 7 * time.Second)
		// A CWA key download: ~45 downstream packets.
		for p := 0; p < 45; p++ {
			pending = append(pending, cache.Observe(netflow.Packet{
				Time: at.Add(time.Duration(p) * 20 * time.Millisecond),
				Src:  edge, Dst: client,
				SrcPort: 443, DstPort: uint16(50000 + c), Proto: netflow.ProtoTCP,
				Bytes: 1300,
			})...)
		}
		// Unrelated background flow (dropped by the prefix filter).
		pending = append(pending, cache.Observe(netflow.Packet{
			Time: at, Src: netip.MustParseAddr("8.8.8.8"), Dst: client,
			SrcPort: 443, DstPort: uint16(40000 + c), Proto: netflow.ProtoTCP, Bytes: 900,
		})...)
		if c%50 == 49 {
			pending = append(pending, cache.Sweep(at.Add(time.Minute))...)
		}
	}
	pending = append(pending, cache.Drain()...)
	obs, sampled := cache.Stats()
	fmt.Printf("router observed %d packets, sampled %d (1:%d), exported %d flow records\n",
		obs, sampled, cfg.SampleRate, len(pending))

	// --- Ship them over the wire. ---
	if err := exporter.Export(pending, start.Add(time.Hour)); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for collector.Stats().Records < uint64(len(pending)) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if err := collector.Close(); err != nil { // drains what was received
		log.Fatal(err)
	}
	st := collector.Stats()
	fmt.Printf("collector received %d datagrams, %d records, %d decode errors\n",
		st.Packets, st.Records, st.DecodeErrors)

	// --- Anonymize (Crypto-PAn) and filter (the paper's data set). ---
	key := make([]byte, cryptopan.KeySize)
	for i := range key {
		key[i] = byte(i + 100)
	}
	anon, err := cryptopan.New(key)
	if err != nil {
		log.Fatal(err)
	}
	coll := netflow.NewCollector(anon, netsim.IsCWAServer)
	coll.Ingest(received.recs)
	anonymized := coll.Records()

	kept, census := core.ApplyFilter(anonymized, core.DefaultFilter())
	fmt.Printf("after anonymization + filtering: %s\n", census)
	if len(kept) > 0 {
		fmt.Printf("first kept record: %s -> %s (%d pkts, %d bytes) — client address anonymized\n",
			kept[0].Src, kept[0].Dst, kept[0].Packets, kept[0].Bytes)
	}
}
