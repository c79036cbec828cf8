package nfv9

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"cwatrace/internal/netflow"
)

// TestQuickEncodeDecodeRoundTrip: arbitrary valid IPv4 records survive the
// v9 wire format.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	enc := NewEncoder(11)
	dec := NewDecoder("")
	// Prime templates once, as a long-lived exporter/collector pair would.
	prime, err := enc.Encode([]netflow.Record{v4Record(0)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePacket(dec, prime); err != nil {
		t.Fatal(err)
	}

	f := func(src, dst [4]byte, sport, dport uint16, proto uint8,
		pkts, byteCount uint32, firstSec uint32, durMs uint16) bool {
		first := time.Unix(int64(firstSec), 0).UTC()
		rec := netflow.Record{
			Key: netflow.Key{
				Src:     netip.AddrFrom4(src),
				Dst:     netip.AddrFrom4(dst),
				SrcPort: sport,
				DstPort: dport,
				Proto:   proto,
			},
			Packets: uint64(pkts),
			Bytes:   uint64(byteCount),
			First:   first,
			Last:    first.Add(time.Duration(durMs) * time.Millisecond),
		}
		data, err := enc.Encode([]netflow.Record{rec}, exportTime)
		if err != nil {
			return false
		}
		pkt, err := decodePacket(dec, data)
		if err != nil || len(pkt.Records) != 1 {
			return false
		}
		got := pkt.Records[0]
		got.Exporter = ""
		return got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSequenceMonotone: sequence numbers never decrease across
// arbitrary batch sizes.
func TestQuickSequenceMonotone(t *testing.T) {
	enc := NewEncoder(12)
	prev := uint32(0)
	f := func(n uint8) bool {
		recs := make([]netflow.Record, int(n%20)+1)
		for i := range recs {
			recs[i] = v4Record(i)
		}
		if _, err := enc.Encode(recs, exportTime); err != nil {
			return false
		}
		seq := enc.Sequence()
		ok := seq >= prev
		prev = seq
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
