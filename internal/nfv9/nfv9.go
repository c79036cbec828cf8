// Package nfv9 implements the NetFlow version 9 export protocol (RFC 3954)
// for the flow records of this reproduction: template and data FlowSets,
// export packets with sequence numbers, and a UDP exporter/collector pair.
//
// The paper's vantage point receives "sampled Netflow traces from routers";
// this package is the wire between internal/netflow (the router-side cache)
// and the collector — the routers encode their records as v9 packets, the
// collector decodes and hands them to the anonymization stage. The
// implementation covers the subset of RFC 3954 needed for 5-tuple +
// counters + timestamps records over IPv4 and IPv6.
package nfv9

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"cwatrace/internal/netflow"
)

// Version is the NetFlow export format version.
const Version uint16 = 9

// RFC 3954 field type numbers used by this implementation.
const (
	fieldInBytes       = 1  // IN_BYTES
	fieldInPkts        = 2  // IN_PKTS
	fieldProtocol      = 4  // PROTOCOL
	fieldL4SrcPort     = 7  // L4_SRC_PORT
	fieldIPv4SrcAddr   = 8  // IPV4_SRC_ADDR
	fieldL4DstPort     = 11 // L4_DST_PORT
	fieldIPv4DstAddr   = 12 // IPV4_DST_ADDR
	fieldLastSwitched  = 21 // LAST_SWITCHED (ms, uptime-based; we carry unix ms)
	fieldFirstSwitched = 22 // FIRST_SWITCHED
	fieldIPv6SrcAddr   = 27 // IPV6_SRC_ADDR
	fieldIPv6DstAddr   = 28 // IPV6_DST_ADDR
)

// Template IDs for the two record layouts. Data FlowSet IDs must be > 255.
const (
	TemplateIPv4 uint16 = 256
	TemplateIPv6 uint16 = 257
)

// v4RecordLen is bytes per IPv4 data record: 2x addr(4) + 2x port(2) +
// proto(1) + pad(1) + bytes(8) + pkts(8) + first(8) + last(8).
const v4RecordLen = 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 8 + 8

// v6RecordLen is bytes per IPv6 data record.
const v6RecordLen = 16 + 16 + 2 + 2 + 1 + 1 + 8 + 8 + 8 + 8

// headerLen is the v9 packet header size.
const headerLen = 20

// Errors.
var (
	ErrShortPacket     = errors.New("nfv9: packet too short")
	ErrBadVersion      = errors.New("nfv9: not a v9 packet")
	ErrUnknownTemplate = errors.New("nfv9: data flowset references unknown template")
)

// Encoder builds export packets for one exporter (identified by SourceID).
// It is not safe for concurrent use.
type Encoder struct {
	sourceID uint32
	seq      uint32
	// templatesSent tracks whether templates were included yet; RFC 3954
	// requires periodic resends, which Reset triggers.
	templatesSent bool
}

// NewEncoder creates an Encoder with the given observation-domain source
// ID.
func NewEncoder(sourceID uint32) *Encoder {
	return &Encoder{sourceID: sourceID}
}

// Reset forces the next packet to carry template definitions again (the
// periodic template refresh of RFC 3954).
func (e *Encoder) Reset() { e.templatesSent = false }

// Encode renders records into one export packet. The first packet (and any
// packet after Reset) carries the template FlowSet. Records are split by
// address family into the two data FlowSets. exportTime stamps the header.
func (e *Encoder) Encode(records []netflow.Record, exportTime time.Time) ([]byte, error) {
	var v4, v6 []netflow.Record
	for _, r := range records {
		switch {
		case r.Src.Is4() && r.Dst.Is4():
			v4 = append(v4, r)
		case r.Src.Is6() && r.Dst.Is6():
			v6 = append(v6, r)
		default:
			return nil, fmt.Errorf("nfv9: mixed address families in record %v -> %v", r.Src, r.Dst)
		}
	}

	buf := make([]byte, headerLen, headerLen+512+len(records)*v6RecordLen)

	count := 0
	if !e.templatesSent {
		buf = appendTemplateFlowSet(buf)
		count += 2 // two template records
		e.templatesSent = true
	}
	if len(v4) > 0 {
		buf = appendDataFlowSet(buf, TemplateIPv4, v4)
		count += len(v4)
	}
	if len(v6) > 0 {
		buf = appendDataFlowSet(buf, TemplateIPv6, v6)
		count += len(v6)
	}

	binary.BigEndian.PutUint16(buf[0:2], Version)
	binary.BigEndian.PutUint16(buf[2:4], uint16(count))
	binary.BigEndian.PutUint32(buf[4:8], uint32(exportTime.Unix())) // sysUptime stand-in
	binary.BigEndian.PutUint32(buf[8:12], uint32(exportTime.Unix()))
	binary.BigEndian.PutUint32(buf[12:16], e.seq)
	binary.BigEndian.PutUint32(buf[16:20], e.sourceID)
	// RFC 3954 section 5.1: the v9 sequence number counts export
	// packets per observation domain (unlike v5, which counted flows).
	e.seq++
	return buf, nil
}

// canonicalV4Fields and canonicalV6Fields are the two record layouts this
// package's encoder emits. The decoder compares learned templates against
// them to select the unrolled fast-path decoders.
var (
	canonicalV4Fields = []templateField{
		{fieldIPv4SrcAddr, 4},
		{fieldIPv4DstAddr, 4},
		{fieldL4SrcPort, 2},
		{fieldL4DstPort, 2},
		{fieldProtocol, 1},
		{0, 1}, // padding field (type 0, vendor-reserved here)
		{fieldInBytes, 8},
		{fieldInPkts, 8},
		{fieldFirstSwitched, 8},
		{fieldLastSwitched, 8},
	}
	canonicalV6Fields = []templateField{
		{fieldIPv6SrcAddr, 16},
		{fieldIPv6DstAddr, 16},
		{fieldL4SrcPort, 2},
		{fieldL4DstPort, 2},
		{fieldProtocol, 1},
		{0, 1},
		{fieldInBytes, 8},
		{fieldInPkts, 8},
		{fieldFirstSwitched, 8},
		{fieldLastSwitched, 8},
	}
)

// appendTemplateFlowSet emits the template FlowSet defining both layouts.
func appendTemplateFlowSet(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // flowset id 0 + length, filled below
	for i, tid := range []uint16{TemplateIPv4, TemplateIPv6} {
		fs := canonicalV4Fields
		if i == 1 {
			fs = canonicalV6Fields
		}
		buf = be16(buf, tid)
		buf = be16(buf, uint16(len(fs)))
		for _, f := range fs {
			buf = be16(buf, f.Type)
			buf = be16(buf, f.Length)
		}
	}
	binary.BigEndian.PutUint16(buf[start:start+2], 0) // template flowset id
	binary.BigEndian.PutUint16(buf[start+2:start+4], uint16(len(buf)-start))
	return buf
}

// appendDataFlowSet emits one data FlowSet of records under a template.
func appendDataFlowSet(buf []byte, templateID uint16, records []netflow.Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	for _, r := range records {
		if templateID == TemplateIPv4 {
			a, b := r.Src.As4(), r.Dst.As4()
			buf = append(buf, a[:]...)
			buf = append(buf, b[:]...)
		} else {
			a, b := r.Src.As16(), r.Dst.As16()
			buf = append(buf, a[:]...)
			buf = append(buf, b[:]...)
		}
		buf = be16(buf, r.SrcPort)
		buf = be16(buf, r.DstPort)
		buf = append(buf, r.Proto, 0)
		buf = be64(buf, r.Bytes)
		buf = be64(buf, r.Packets)
		buf = be64(buf, uint64(r.First.UnixMilli()))
		buf = be64(buf, uint64(r.Last.UnixMilli()))
	}
	// Pad the flowset to a 4-byte boundary per RFC 3954.
	for len(buf)%4 != 0 {
		buf = append(buf, 0)
	}
	binary.BigEndian.PutUint16(buf[start:start+2], templateID)
	binary.BigEndian.PutUint16(buf[start+2:start+4], uint16(len(buf)-start))
	return buf
}

func be16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func be64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// templateField is one parsed template field.
type templateField struct {
	Type   uint16
	Length uint16
}

// Accessor kinds for compiled template programs, one per field type this
// implementation decodes.
const (
	opSrc4 uint8 = iota
	opDst4
	opSrc6
	opDst6
	opSrcPort
	opDstPort
	opProto
	opBytes
	opPackets
	opFirst
	opLast
)

// fieldOp is one compiled accessor: read the field at a pre-resolved
// record offset straight out of the wire buffer.
type fieldOp struct {
	off  uint32
	kind uint8
}

// Record layouts the decoder specializes.
const (
	layoutGeneric uint8 = iota
	layoutV4            // canonicalV4Fields exactly
	layoutV6            // canonicalV6Fields exactly
)

// template is one learned template compiled for the decode hot path:
// field offsets are resolved once here, at template-parse time, so the
// per-record loop never walks the field list doing offset arithmetic.
// Length validation also moves here — but a malformed template is only
// *reported* when a data FlowSet references it (err below), preserving
// the wire behavior of the interpreting decoder.
type template struct {
	fields []templateField // raw wire definition
	recLen int             // bytes per record
	ops    []fieldOp       // accessors for the fields this implementation decodes
	layout uint8           // fast-path selector
	err    error           // compile-time rejection, surfaced on first data use
}

// kindOf maps a decodable field type to its accessor kind. Callers must
// only pass types with fieldLen != 0.
func kindOf(typ uint16) uint8 {
	switch typ {
	case fieldIPv4SrcAddr:
		return opSrc4
	case fieldIPv4DstAddr:
		return opDst4
	case fieldIPv6SrcAddr:
		return opSrc6
	case fieldIPv6DstAddr:
		return opDst6
	case fieldL4SrcPort:
		return opSrcPort
	case fieldL4DstPort:
		return opDstPort
	case fieldProtocol:
		return opProto
	case fieldInBytes:
		return opBytes
	case fieldInPkts:
		return opPackets
	case fieldFirstSwitched:
		return opFirst
	}
	return opLast
}

// compileTemplate builds the accessor table for a template definition.
func compileTemplate(tid uint16, fields []templateField) *template {
	t := &template{fields: fields}
	off := 0
	for _, f := range fields {
		if want := fieldLen(f.Type); want != 0 {
			if f.Length != want {
				// The fixed-width accessors would over-read a template that
				// declares a shorter length — a malformed (or malicious)
				// template must be rejected, not trusted. Found by
				// FuzzDecode.
				t.err = fmt.Errorf("nfv9: template %d declares field %d with length %d, want %d",
					tid, f.Type, f.Length, want)
				return t
			}
			t.ops = append(t.ops, fieldOp{off: uint32(off), kind: kindOf(f.Type)})
		}
		off += int(f.Length)
	}
	t.recLen = off
	if t.recLen == 0 {
		t.err = fmt.Errorf("nfv9: template %d has zero record length", tid)
		return t
	}
	switch {
	case equalFields(fields, canonicalV4Fields):
		t.layout = layoutV4
	case equalFields(fields, canonicalV6Fields):
		t.layout = layoutV6
	}
	return t
}

// matchesWire reports whether the raw field list b (4 bytes per field,
// as it appears in a template FlowSet) declares exactly this template's
// fields, without materializing a parsed copy.
func (t *template) matchesWire(b []byte) bool {
	if len(b) != 4*len(t.fields) {
		return false
	}
	for i := range t.fields {
		if binary.BigEndian.Uint16(b[4*i:4*i+2]) != t.fields[i].Type ||
			binary.BigEndian.Uint16(b[4*i+2:4*i+4]) != t.fields[i].Length {
			return false
		}
	}
	return true
}

func equalFields(a, b []templateField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Decoder parses export packets. Templates learned from packets persist
// across calls, as in a real collector; until the first template FlowSet
// arrives, data FlowSets fail with ErrUnknownTemplate, so a collector
// behind a lossy link recovers only at the exporter's next template
// refresh (RFC 3954 section 9 mandates periodic resends for exactly this
// reason).
//
// The decoder also audits the export stream: v9 sequence numbers count
// export packets per observation domain, so a jump between consecutive
// packets means the transport lost (or reordered) export packets.
// SequenceStats surfaces the running tally.
type Decoder struct {
	templates map[uint16]*template
	exporter  string

	// Sequence accounting (RFC 3954: UDP export is unreliable, the
	// sequence number exists so collectors can detect loss).
	haveSeq   bool
	nextSeq   uint32
	gaps      int
	lost      uint64
	reordered int
}

// NewDecoder creates a Decoder; exporter names the records it produces.
//
// RFC 3954 scopes template IDs and sequence numbers per observation
// domain: collectors must keep one Decoder per (sender address, SourceID)
// pair, peeking the SourceID with PeekSourceID before choosing the
// decoder. A shared decoder across domains would interleave independent
// sequence spaces and report phantom gaps.
func NewDecoder(exporter string) *Decoder {
	d := &Decoder{templates: make(map[uint16]*template), exporter: exporter}
	return d
}

// PeekSourceID extracts the observation-domain SourceID from an export
// packet header without decoding it, so collectors can route the packet
// to the right per-domain Decoder. ok is false for short or non-v9
// packets, letting collectors reject garbage before allocating any
// per-source state.
func PeekSourceID(data []byte) (id uint32, ok bool) {
	if len(data) < headerLen || binary.BigEndian.Uint16(data[0:2]) != Version {
		return 0, false
	}
	return binary.BigEndian.Uint32(data[16:20]), true
}

// SequenceStats reports the sequence audit: gaps is how many packet
// transitions broke the expected numbering, lost is the net number of
// export packets that never arrived (a late packet that shows up after
// being presumed lost is credited back), and reordered counts transitions
// that went backwards instead of forwards.
func (d *Decoder) SequenceStats() (gaps int, lost uint64, reordered int) {
	return d.gaps, d.lost, d.reordered
}

// trackSequence advances the sequence audit across one decoded packet.
// Per RFC 3954 the v9 sequence number is an incremental counter of export
// packets, so the expected next value is always prev+1 and a forward jump
// of n means n packets were lost in transit.
func (d *Decoder) trackSequence(seq uint32) {
	if d.haveSeq && seq != d.nextSeq {
		d.gaps++
		if delta := seq - d.nextSeq; delta < 1<<31 {
			d.lost += uint64(delta)
		} else {
			// The stream went backwards: a late, reordered packet
			// rather than loss. Don't let it poison nextSeq, and
			// credit back the loss it was charged as when the
			// forward jump skipped it (benign reordering must not
			// raise loss alarms).
			d.reordered++
			if d.lost > 0 {
				d.lost--
			}
			return
		}
	}
	d.haveSeq = true
	d.nextSeq = seq + 1
}

// PacketMeta is the header-and-census view of one decoded packet.
type PacketMeta struct {
	SequenceNumber uint32
	SourceID       uint32
	ExportTime     time.Time
	// Templates counts template definitions seen in the packet.
	Templates int
}

// DecodeInto parses one packet, appending its records onto the
// caller-owned slice (typically a netflow.Slab the caller recycles), and
// returns the packet header as a value: the steady state allocates
// nothing. Every field of every appended record is written, so reused
// storage never leaks stale state. On error the returned slice is out
// truncated back to its original length — the caller keeps ownership
// either way, and any records appended before the error are discarded.
func (d *Decoder) DecodeInto(data []byte, out []netflow.Record) ([]netflow.Record, PacketMeta, error) {
	base := len(out)
	var meta PacketMeta
	if len(data) < headerLen {
		return out, meta, ErrShortPacket
	}
	if v := binary.BigEndian.Uint16(data[0:2]); v != Version {
		return out, meta, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	meta.ExportTime = time.Unix(int64(binary.BigEndian.Uint32(data[8:12])), 0).UTC()
	meta.SequenceNumber = binary.BigEndian.Uint32(data[12:16])
	meta.SourceID = binary.BigEndian.Uint32(data[16:20])
	d.trackSequence(meta.SequenceNumber)
	off := headerLen
	for off+4 <= len(data) {
		setID := binary.BigEndian.Uint16(data[off : off+2])
		setLen := int(binary.BigEndian.Uint16(data[off+2 : off+4]))
		if setLen < 4 || off+setLen > len(data) {
			return out[:base], meta, fmt.Errorf("%w: flowset length %d at offset %d", ErrShortPacket, setLen, off)
		}
		body := data[off+4 : off+setLen]
		if setID == 0 {
			n, err := d.parseTemplates(body)
			if err != nil {
				return out[:base], meta, err
			}
			meta.Templates += n
		} else if setID > 255 {
			recs, err := d.parseData(setID, body, out)
			if err != nil {
				return out[:base], meta, err
			}
			out = recs
		}
		off += setLen
	}
	return out, meta, nil
}

func (d *Decoder) parseTemplates(body []byte) (int, error) {
	n := 0
	off := 0
	for off+4 <= len(body) {
		tid := binary.BigEndian.Uint16(body[off : off+2])
		fieldCount := int(binary.BigEndian.Uint16(body[off+2 : off+4]))
		off += 4
		if off+fieldCount*4 > len(body) {
			return n, fmt.Errorf("%w: truncated template %d", ErrShortPacket, tid)
		}
		// An identical refresh of a known template — the periodic resend
		// RFC 3954 requires — keeps the compiled accessor table and
		// allocates nothing, so template-bearing packets stay on the
		// zero-alloc path in the steady state.
		if old, ok := d.templates[tid]; ok && old.matchesWire(body[off:off+fieldCount*4]) {
			off += fieldCount * 4
			n++
			continue
		}
		fields := make([]templateField, fieldCount)
		for i := 0; i < fieldCount; i++ {
			fields[i] = templateField{
				Type:   binary.BigEndian.Uint16(body[off : off+2]),
				Length: binary.BigEndian.Uint16(body[off+2 : off+4]),
			}
			off += 4
		}
		d.templates[tid] = compileTemplate(tid, fields)
		n++
	}
	return n, nil
}

// fieldLen returns the wire length this implementation requires for a
// field type it decodes (0 = any length; the field is skipped). The
// fixed-width readers below would over-read a template that declares a
// shorter length — a malformed (or malicious) template must be rejected,
// not trusted. Found by FuzzDecode.
func fieldLen(typ uint16) uint16 {
	switch typ {
	case fieldIPv4SrcAddr, fieldIPv4DstAddr:
		return 4
	case fieldIPv6SrcAddr, fieldIPv6DstAddr:
		return 16
	case fieldL4SrcPort, fieldL4DstPort:
		return 2
	case fieldProtocol:
		return 1
	case fieldInBytes, fieldInPkts, fieldFirstSwitched, fieldLastSwitched:
		return 8
	}
	return 0
}

// parseData decodes one data FlowSet, appending onto out. The per-record
// work runs over the template's compiled accessor table; the two
// canonical layouts this package's encoder emits additionally get fully
// unrolled decoders.
func (d *Decoder) parseData(tid uint16, body []byte, out []netflow.Record) ([]netflow.Record, error) {
	t, ok := d.templates[tid]
	if !ok {
		return out, fmt.Errorf("%w: %d", ErrUnknownTemplate, tid)
	}
	if t.err != nil {
		return out, t.err
	}
	n := len(body) / t.recLen
	if n == 0 {
		return out, nil
	}
	base := len(out)
	out = slices.Grow(out, n)
	out = out[:base+n]
	dst := out[base:]
	switch t.layout {
	case layoutV4:
		d.decodeV4(body, dst)
	case layoutV6:
		d.decodeV6(body, dst)
	default:
		d.decodeGeneric(t, body, dst)
	}
	return out, nil
}

// decodeV4 decodes records in the canonical IPv4 layout. The offsets are
// those of canonicalV4Fields: src 0, dst 4, ports 8/10, proto 12, pad 13,
// bytes 14, pkts 22, first 30, last 38; 46 bytes per record. Writing
// through a pointer into the slab (rather than building a Record value and
// copying it in) keeps the 112-byte struct copy off the hot path.
func (d *Decoder) decodeV4(body []byte, dst []netflow.Record) {
	off := 0
	for i := range dst {
		rec := body[off : off+v4RecordLen : off+v4RecordLen]
		r := &dst[i]
		r.Src = netip.AddrFrom4([4]byte(rec[0:4]))
		r.Dst = netip.AddrFrom4([4]byte(rec[4:8]))
		r.SrcPort = binary.BigEndian.Uint16(rec[8:10])
		r.DstPort = binary.BigEndian.Uint16(rec[10:12])
		r.Proto = rec[12]
		r.Bytes = binary.BigEndian.Uint64(rec[14:22])
		r.Packets = binary.BigEndian.Uint64(rec[22:30])
		r.First = time.UnixMilli(int64(binary.BigEndian.Uint64(rec[30:38]))).UTC()
		r.Last = time.UnixMilli(int64(binary.BigEndian.Uint64(rec[38:46]))).UTC()
		r.Exporter = d.exporter
		off += v4RecordLen
	}
}

// decodeV6 decodes records in the canonical IPv6 layout: src 0, dst 16,
// ports 32/34, proto 36, pad 37, bytes 38, pkts 46, first 54, last 62; 70
// bytes per record.
func (d *Decoder) decodeV6(body []byte, dst []netflow.Record) {
	off := 0
	for i := range dst {
		rec := body[off : off+v6RecordLen : off+v6RecordLen]
		r := &dst[i]
		r.Src = netip.AddrFrom16([16]byte(rec[0:16]))
		r.Dst = netip.AddrFrom16([16]byte(rec[16:32]))
		r.SrcPort = binary.BigEndian.Uint16(rec[32:34])
		r.DstPort = binary.BigEndian.Uint16(rec[34:36])
		r.Proto = rec[36]
		r.Bytes = binary.BigEndian.Uint64(rec[38:46])
		r.Packets = binary.BigEndian.Uint64(rec[46:54])
		r.First = time.UnixMilli(int64(binary.BigEndian.Uint64(rec[54:62]))).UTC()
		r.Last = time.UnixMilli(int64(binary.BigEndian.Uint64(rec[62:70]))).UTC()
		r.Exporter = d.exporter
		off += v6RecordLen
	}
}

// decodeGeneric decodes records under an arbitrary compiled template by
// walking its accessor table. Each slot is fully reset first so reused
// slab storage never leaks fields the template doesn't carry.
func (d *Decoder) decodeGeneric(t *template, body []byte, dst []netflow.Record) {
	off := 0
	for i := range dst {
		rec := body[off : off+t.recLen : off+t.recLen]
		r := &dst[i]
		*r = netflow.Record{Exporter: d.exporter}
		for _, op := range t.ops {
			val := rec[op.off:]
			switch op.kind {
			case opSrc4:
				r.Src = netip.AddrFrom4([4]byte(val[:4]))
			case opDst4:
				r.Dst = netip.AddrFrom4([4]byte(val[:4]))
			case opSrc6:
				r.Src = netip.AddrFrom16([16]byte(val[:16]))
			case opDst6:
				r.Dst = netip.AddrFrom16([16]byte(val[:16]))
			case opSrcPort:
				r.SrcPort = binary.BigEndian.Uint16(val[:2])
			case opDstPort:
				r.DstPort = binary.BigEndian.Uint16(val[:2])
			case opProto:
				r.Proto = val[0]
			case opBytes:
				r.Bytes = binary.BigEndian.Uint64(val[:8])
			case opPackets:
				r.Packets = binary.BigEndian.Uint64(val[:8])
			case opFirst:
				r.First = time.UnixMilli(int64(binary.BigEndian.Uint64(val[:8]))).UTC()
			case opLast:
				r.Last = time.UnixMilli(int64(binary.BigEndian.Uint64(val[:8]))).UTC()
			}
		}
		off += t.recLen
	}
}
