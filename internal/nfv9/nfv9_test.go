package nfv9

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"cwatrace/internal/netflow"
)

var exportTime = time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC)

// Sequence returns the current sequence counter.
func (e *Encoder) Sequence() uint32 { return e.seq }

func v4Record(i int) netflow.Record {
	return netflow.Record{
		Key: netflow.Key{
			Src:     netip.AddrFrom4([4]byte{198, 51, 100, 10}),
			Dst:     netip.AddrFrom4([4]byte{20, 0, byte(i >> 8), byte(i)}),
			SrcPort: 443,
			DstPort: uint16(50000 + i),
			Proto:   netflow.ProtoTCP,
		},
		Packets: uint64(1 + i),
		Bytes:   uint64(100 * (i + 1)),
		First:   exportTime.Add(time.Duration(i) * time.Second),
		Last:    exportTime.Add(time.Duration(i+1) * time.Second),
	}
}

func v6Record(i int) netflow.Record {
	r := v4Record(i)
	r.Src = netip.MustParseAddr("2001:db8:ffff::10")
	r.Dst = netip.MustParseAddr("2001:db8::1")
	return r
}

// packet is one decoded export packet as the tests read it: the header
// view and the records.
type packet struct {
	PacketMeta
	Records []netflow.Record
}

// decodePacket runs one wire packet through DecodeInto into fresh storage.
func decodePacket(d *Decoder, data []byte) (*packet, error) {
	recs, meta, err := d.DecodeInto(data, nil)
	if err != nil {
		return nil, err
	}
	return &packet{meta, recs}, nil
}

// stripExporter clears the Exporter field for comparison: the decoder
// attributes records to the sending address, not the original router name.
func stripExporter(recs []netflow.Record) []netflow.Record {
	out := make([]netflow.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Exporter = ""
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	enc := NewEncoder(7)
	var records []netflow.Record
	for i := 0; i < 5; i++ {
		records = append(records, v4Record(i))
	}
	records = append(records, v6Record(90), v6Record(91))

	pktData, err := enc.Encode(records, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder("")
	pkt, err := decodePacket(dec, pktData)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.SourceID != 7 {
		t.Fatalf("source id = %d", pkt.SourceID)
	}
	if pkt.Templates != 2 {
		t.Fatalf("templates = %d, want 2 in first packet", pkt.Templates)
	}
	if len(pkt.Records) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(pkt.Records), len(records))
	}
	got := stripExporter(pkt.Records)
	want := stripExporter(records)
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %+v lost in round trip", w)
		}
	}
}

func TestTimestampsMillisecondPrecision(t *testing.T) {
	enc := NewEncoder(1)
	rec := v4Record(0)
	rec.First = exportTime.Add(123 * time.Millisecond)
	rec.Last = exportTime.Add(456 * time.Millisecond)
	data, err := enc.Encode([]netflow.Record{rec}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := decodePacket(NewDecoder(""), data)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Records[0].First.Equal(rec.First) || !pkt.Records[0].Last.Equal(rec.Last) {
		t.Fatalf("timestamps lost precision: %v / %v", pkt.Records[0].First, pkt.Records[0].Last)
	}
}

func TestTemplatesOnlyInFirstPacket(t *testing.T) {
	enc := NewEncoder(2)
	d1, err := enc.Encode([]netflow.Record{v4Record(0)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := enc.Encode([]netflow.Record{v4Record(1)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder("")
	p1, err := decodePacket(dec, d1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := decodePacket(dec, d2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Templates != 2 || p2.Templates != 0 {
		t.Fatalf("templates = %d then %d, want 2 then 0", p1.Templates, p2.Templates)
	}
	if len(p2.Records) != 1 {
		t.Fatal("second packet records lost")
	}
	// After Reset, templates come back.
	enc.Reset()
	d3, err := enc.Encode([]netflow.Record{v4Record(2)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := decodePacket(dec, d3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Templates != 2 {
		t.Fatalf("post-reset templates = %d", p3.Templates)
	}
}

func TestSequenceNumbering(t *testing.T) {
	// RFC 3954: the v9 sequence number counts export packets per
	// observation domain (not items, unlike v5's flow counter).
	enc := NewEncoder(3)
	if _, err := enc.Encode([]netflow.Record{v4Record(0), v4Record(1)}, exportTime); err != nil {
		t.Fatal(err)
	}
	if enc.Sequence() != 1 {
		t.Fatalf("sequence = %d, want 1 after one packet", enc.Sequence())
	}
	if _, err := enc.Encode([]netflow.Record{v4Record(2)}, exportTime); err != nil {
		t.Fatal(err)
	}
	if enc.Sequence() != 2 {
		t.Fatalf("sequence = %d, want 2 after two packets", enc.Sequence())
	}
}

func TestDecodeBeforeTemplate(t *testing.T) {
	// A fresh decoder receiving a data-only packet must reject the data
	// flowset (unknown template).
	enc := NewEncoder(4)
	if _, err := enc.Encode([]netflow.Record{v4Record(0)}, exportTime); err != nil {
		t.Fatal(err) // consumes the template send
	}
	dataOnly, err := enc.Encode([]netflow.Record{v4Record(1)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePacket(NewDecoder(""), dataOnly); err == nil {
		t.Fatal("data before template must fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodePacket(NewDecoder(""), []byte{1, 2, 3}); err == nil {
		t.Fatal("short packet must fail")
	}
	bad := make([]byte, headerLen)
	bad[0], bad[1] = 0, 5 // NetFlow v5
	if _, err := decodePacket(NewDecoder(""), bad); err == nil {
		t.Fatal("wrong version must fail")
	}
	// Corrupt flowset length.
	enc := NewEncoder(5)
	data, err := enc.Encode([]netflow.Record{v4Record(0)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+2] = 0xFF
	data[headerLen+3] = 0xFF
	if _, err := decodePacket(NewDecoder(""), data); err == nil {
		t.Fatal("oversized flowset length must fail")
	}
}

func TestMixedFamilyRecordRejected(t *testing.T) {
	rec := v4Record(0)
	rec.Dst = netip.MustParseAddr("2001:db8::1")
	if _, err := NewEncoder(6).Encode([]netflow.Record{rec}, exportTime); err == nil {
		t.Fatal("mixed family record must fail")
	}
}

func TestUDPExportCollect(t *testing.T) {
	addr, next := captureConn(t)
	exp, err := NewExporter(addr, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	var sent []netflow.Record
	for i := 0; i < 100; i++ {
		sent = append(sent, v4Record(i))
	}
	for i := 0; i < 10; i++ {
		sent = append(sent, v6Record(200+i))
	}
	if err := exp.Export(sent, exportTime); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder("")
	var got []netflow.Record
	packets := 0
	for len(got) < len(sent) {
		pkt, err := decodePacket(dec, next())
		if err != nil {
			t.Fatal(err)
		}
		packets++
		got = append(got, pkt.Records...)
	}
	wantSet := make(map[netflow.Record]bool)
	for _, r := range stripExporter(sent) {
		wantSet[r] = true
	}
	for _, r := range stripExporter(got) {
		if !wantSet[r] {
			t.Fatalf("unexpected record %+v", r)
		}
	}
	if len(got) != len(sent) {
		t.Fatalf("received %d records, sent %d", len(got), len(sent))
	}
	// Chunking: 110 records cannot fit one datagram.
	if packets < 2 {
		t.Fatalf("expected multiple datagrams, got %d", packets)
	}
}

func TestExportPacketsFitMTU(t *testing.T) {
	enc := NewEncoder(9)
	var recs []netflow.Record
	for i := 0; i < maxRecordsPerPacket; i++ {
		recs = append(recs, v6Record(i))
	}
	data, err := enc.Encode(recs, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > maxDatagram {
		t.Fatalf("packet %d bytes exceeds MTU budget %d", len(data), maxDatagram)
	}
}

func BenchmarkEncode(b *testing.B) {
	enc := NewEncoder(1)
	rng := rand.New(rand.NewSource(1))
	var recs []netflow.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, v4Record(rng.Intn(1000)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(recs, exportTime); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	enc := NewEncoder(1)
	var recs []netflow.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, v4Record(i))
	}
	data, err := enc.Encode(recs, exportTime)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePacket(dec, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	enc := NewEncoder(1)
	var recs []netflow.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, v4Record(i))
	}
	data, err := enc.Encode(recs, exportTime)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder("bench")
	slab := netflow.GetSlab()
	defer netflow.RecycleSlab(slab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := dec.DecodeInto(data, slab.Recs[:0])
		if err != nil {
			b.Fatal(err)
		}
		slab.Recs = out
	}
}
