package nfv9

import (
	"fmt"
	"net"
	"time"

	"cwatrace/internal/netflow"
)

// maxDatagram bounds export packet sizes; v9 exporters keep datagrams under
// the typical 1500-byte MTU.
const maxDatagram = 1400

// maxRecordsPerPacket keeps encoded packets under maxDatagram for the
// largest (IPv6) record layout plus header and template overhead.
const maxRecordsPerPacket = (maxDatagram - headerLen - 96) / v6RecordLen

// Exporter sends flow records to a collector over UDP, splitting them into
// MTU-sized export packets and refreshing templates periodically.
type Exporter struct {
	conn net.Conn
	enc  *Encoder
	// TemplateRefresh is how many packets go between template resends
	// (RFC 3954 suggests periodic refresh since UDP is lossy).
	TemplateRefresh int
	sent            int
}

// NewExporter dials the collector address ("host:port").
func NewExporter(collectorAddr string, sourceID uint32) (*Exporter, error) {
	conn, err := net.Dial("udp", collectorAddr)
	if err != nil {
		return nil, fmt.Errorf("nfv9: dialing collector: %w", err)
	}
	return &Exporter{conn: conn, enc: NewEncoder(sourceID), TemplateRefresh: 20}, nil
}

// Export encodes and sends records, chunked into datagrams.
func (e *Exporter) Export(records []netflow.Record, now time.Time) error {
	for len(records) > 0 {
		n := len(records)
		if n > maxRecordsPerPacket {
			n = maxRecordsPerPacket
		}
		if e.TemplateRefresh > 0 && e.sent%e.TemplateRefresh == 0 {
			e.enc.Reset()
		}
		pkt, err := e.enc.Encode(records[:n], now)
		if err != nil {
			return err
		}
		if _, err := e.conn.Write(pkt); err != nil {
			return fmt.Errorf("nfv9: sending export packet: %w", err)
		}
		e.sent++
		records = records[n:]
	}
	return nil
}

// Close releases the socket.
func (e *Exporter) Close() error { return e.conn.Close() }
