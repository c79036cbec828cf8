package nfv9

import (
	"net"
	"testing"
	"time"

	"cwatrace/internal/netflow"
)

// captureConn is a UDP listener that collects every datagram it receives,
// so tests can replay (or drop) the exporter's packets selectively.
func captureConn(t *testing.T) (addr string, next func() []byte) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr().String(), func() []byte {
		buf := make([]byte, 65536)
		_ = pc.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Fatalf("capturing export packet: %v", err)
		}
		return buf[:n]
	}
}

// TestExporterTemplateRefreshRecovery drops the exporter's first packet —
// the one carrying the template definitions — and asserts a fresh decoder
// (1) rejects data until a template arrives, and (2) recovers as soon as
// the periodic TemplateRefresh resends it, the RFC 3954 recovery story the
// refresh exists for.
func TestExporterTemplateRefreshRecovery(t *testing.T) {
	addr, next := captureConn(t)
	exp, err := NewExporter(addr, 33)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	exp.TemplateRefresh = 2 // templates on packets 0, 2, 4, ...

	var pkts [][]byte
	for i := 0; i < 4; i++ {
		if err := exp.Export([]netflow.Record{v4Record(i)}, exportTime); err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, next())
	}

	dec := NewDecoder("")
	// Packet 0 (with templates) was lost in transit: packet 1 is
	// undecodable.
	if _, err := decodePacket(dec, pkts[1]); err == nil {
		t.Fatal("data before any template must fail")
	}
	// Packet 2 carries the refresh: decoding recovers...
	p2, err := decodePacket(dec, pkts[2])
	if err != nil {
		t.Fatalf("decoder did not recover on template refresh: %v", err)
	}
	if p2.Templates != 2 || len(p2.Records) != 1 {
		t.Fatalf("refresh packet decoded as %d templates / %d records", p2.Templates, len(p2.Records))
	}
	// ...and stays recovered for template-free packets.
	p3, err := decodePacket(dec, pkts[3])
	if err != nil || len(p3.Records) != 1 {
		t.Fatalf("post-recovery packet: %v (%d records)", err, len(p3.Records))
	}
	// The audit anchors on the first packet it saw (packet 1), so the
	// pre-anchor loss of packet 0 is invisible and the remaining stream
	// is contiguous — no false gap reports while recovering.
	if gaps, lost, _ := dec.SequenceStats(); gaps != 0 || lost != 0 {
		t.Fatalf("recovery stream reported spurious gaps=%d lost=%d", gaps, lost)
	}
}

// TestExporterClose verifies Close releases the socket: further exports
// fail, and closing twice is an error-returning no-op rather than a panic.
func TestExporterClose(t *testing.T) {
	addr, _ := captureConn(t)
	exp, err := NewExporter(addr, 34)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Export([]netflow.Record{v4Record(0)}, exportTime); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exp.Export([]netflow.Record{v4Record(1)}, exportTime); err == nil {
		t.Fatal("export after Close must fail")
	}
	if err := exp.Close(); err == nil {
		t.Fatal("double Close should surface the net.Conn error")
	}
}

// TestExporterChunksLargeBatches pins the MTU discipline: a batch far
// larger than one datagram arrives as multiple packets that together carry
// every record.
func TestExporterChunksLargeBatches(t *testing.T) {
	addr, next := captureConn(t)
	exp, err := NewExporter(addr, 35)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	const n = 100
	recs := make([]netflow.Record, n)
	for i := range recs {
		recs[i] = v4Record(i)
	}
	if err := exp.Export(recs, exportTime); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder("")
	got := 0
	for got < n {
		data := next()
		if len(data) > maxDatagram {
			t.Fatalf("datagram of %d bytes exceeds the %d-byte MTU budget", len(data), maxDatagram)
		}
		pkt, err := decodePacket(dec, data)
		if err != nil {
			t.Fatal(err)
		}
		got += len(pkt.Records)
	}
	if got != n {
		t.Fatalf("received %d records, want %d", got, n)
	}
	if gaps, lost, _ := dec.SequenceStats(); gaps != 0 || lost != 0 {
		t.Fatalf("lossless chunked export reported gaps=%d lost=%d", gaps, lost)
	}
}
