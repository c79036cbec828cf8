package nfv9

import (
	"net/netip"
	"testing"
	"time"

	"cwatrace/internal/netflow"
)

// fuzzSeedRecords fabricates the record shapes a quick sim export
// produces — IPv4 CDN-to-client HTTPS flows plus an IPv6 pair — so the
// seed corpus covers both templates and realistic field values.
func fuzzSeedRecords() [][]netflow.Record {
	at := time.Date(2020, time.June, 16, 9, 0, 0, 0, time.UTC)
	v4 := func(i int) netflow.Record {
		return netflow.Record{
			Key: netflow.Key{
				Src:     netip.AddrFrom4([4]byte{198, 51, 100, 10}),
				Dst:     netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}),
				SrcPort: 443,
				DstPort: uint16(50000 + i),
				Proto:   netflow.ProtoTCP,
			},
			Packets:  uint64(1 + i%7),
			Bytes:    uint64(400 + 100*i),
			First:    at.Add(time.Duration(i) * time.Second),
			Last:     at.Add(time.Duration(i)*time.Second + 800*time.Millisecond),
			Exporter: "ISP/BE-000",
		}
	}
	v6 := netflow.Record{
		Key: netflow.Key{
			Src:     netip.MustParseAddr("2001:db8::10"),
			Dst:     netip.MustParseAddr("2001:db8::c1"),
			SrcPort: 443,
			DstPort: 51515,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  3,
		Bytes:    2048,
		First:    at,
		Last:     at.Add(2 * time.Second),
		Exporter: "ISP/BE-001",
	}
	return [][]netflow.Record{
		{v4(0)},
		{v4(1), v4(2), v4(3)},
		{v6},
		{v4(4), v6},
	}
}

// rawPacket hand-assembles one v9 packet from flowset bodies, bypassing
// the encoder so seeds can cover template shapes the encoder never emits
// (reordered fields, bad lengths, truncated records).
func rawPacket(seq uint32, flowsets ...[]byte) []byte {
	buf := make([]byte, 0, 64)
	buf = be16(buf, Version)
	buf = be16(buf, 0) // count: the decoder does not rely on it
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, 0, 0, 0, 0) // export time 0
	buf = append(buf, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
	buf = append(buf, 0, 0, 0, 7) // source id
	for _, fs := range flowsets {
		buf = append(buf, fs...)
	}
	return buf
}

// rawFlowSet frames one flowset (id + length + body, padded to 4 bytes).
func rawFlowSet(id uint16, body []byte) []byte {
	fs := be16(nil, id)
	fs = be16(fs, uint16(4+len(body)+(4-(4+len(body))%4)%4))
	fs = append(fs, body...)
	for len(fs)%4 != 0 {
		fs = append(fs, 0)
	}
	return fs
}

// rawTemplate renders one template record body.
func rawTemplate(tid uint16, fields []templateField) []byte {
	b := be16(nil, tid)
	b = be16(b, uint16(len(fields)))
	for _, f := range fields {
		b = be16(b, f.Type)
		b = be16(b, f.Length)
	}
	return b
}

// fastPathSeeds are packets exercising the compiled-template machinery:
// a reordered (non-canonical) template that compiles to the generic ops
// decoder, a data slab truncated mid-record, a template with a hostile
// field length the compiler must reject, and unknown interleaved fields
// the accessor table skips.
func fastPathSeeds() [][]byte {
	reordered := []templateField{
		{fieldProtocol, 1}, {fieldL4DstPort, 2}, {fieldIPv4DstAddr, 4},
		{fieldIPv4SrcAddr, 4}, {fieldL4SrcPort, 2}, {fieldInPkts, 8},
		{fieldInBytes, 8}, {fieldLastSwitched, 8}, {fieldFirstSwitched, 8},
	}
	rec := make([]byte, 45) // one reordered record (1+2+4+4+2+8+8+8+8)
	for i := range rec {
		rec[i] = byte(i + 1)
	}
	badLen := []templateField{{fieldIPv4SrcAddr, 4}, {fieldInBytes, 2}}
	unknown := []templateField{
		{9999, 3}, {fieldIPv4SrcAddr, 4}, {4242, 5}, {fieldInBytes, 8},
	}
	unkRec := make([]byte, 20)
	return [][]byte{
		// Template + full data record through the generic compiled path.
		rawPacket(1,
			rawFlowSet(0, rawTemplate(300, reordered)),
			rawFlowSet(300, rec)),
		// Data slab truncated mid-record: 1.5 records, tail ignored.
		rawPacket(2,
			rawFlowSet(0, rawTemplate(300, reordered)),
			rawFlowSet(300, append(append([]byte(nil), rec...), rec[:20]...))),
		// Template declaring IN_BYTES at 2 bytes: compile-time rejection
		// surfaced on first data use.
		rawPacket(3,
			rawFlowSet(0, rawTemplate(301, badLen)),
			rawFlowSet(301, make([]byte, 6))),
		// Unknown field types interleaved: skipped by the accessor table.
		rawPacket(4,
			rawFlowSet(0, rawTemplate(302, unknown)),
			rawFlowSet(302, unkRec)),
	}
}

// FuzzDecode hammers the NFv9 decoder with arbitrary datagrams. The
// decoder must never panic, and whatever it accepts must be internally
// consistent (a non-nil packet, records with the exporter name stamped).
// DecodeInto runs twice side by side on identical decoder state, once
// into fresh storage and once into a reused slab, and the two must agree
// on everything: records, header metadata, errors and the sequence
// audit — reused storage never leaks into a result. The seed corpus is real encoder output — with and
// without template FlowSets — plus hand-built packets covering the
// compiled-template fast paths, so the fuzzer starts from wire-valid
// packets and mutates from there.
func FuzzDecode(f *testing.F) {
	enc := NewEncoder(7)
	for _, recs := range fuzzSeedRecords() {
		pkt, err := enc.Encode(recs, recs[0].First)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
	}
	// A template-refresh packet and a templateless data packet.
	enc.Reset()
	pkt, err := enc.Encode(nil, time.Unix(0, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pkt)
	f.Add([]byte{})
	f.Add([]byte{0, 9, 0, 0})
	for _, seed := range fastPathSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder("fuzz")
		into := NewDecoder("fuzz")
		slab := netflow.GetSlab()
		defer netflow.RecycleSlab(slab)
		// Two passes through each decoder: template state learned from the
		// first decode must not corrupt the second. The slab is reused
		// across passes, so stale storage must never leak into results.
		for i := 0; i < 2; i++ {
			pkt, err := decodePacket(dec, data)
			recs, meta, ierr := into.DecodeInto(data, slab.Recs[:0])
			slab.Recs = recs
			if (err == nil) != (ierr == nil) {
				t.Fatalf("fresh err %v, slab err %v", err, ierr)
			}
			if err != nil {
				if err.Error() != ierr.Error() {
					t.Fatalf("fresh err %q, slab err %q", err, ierr)
				}
				if len(recs) != 0 {
					t.Fatalf("DecodeInto kept %d records across an error", len(recs))
				}
				continue
			}
			if pkt == nil {
				t.Fatal("nil packet without error")
			}
			if meta.SequenceNumber != pkt.SequenceNumber || meta.SourceID != pkt.SourceID ||
				!meta.ExportTime.Equal(pkt.ExportTime) || meta.Templates != pkt.Templates {
				t.Fatalf("meta %+v != packet header %+v", meta, pkt)
			}
			if len(recs) != len(pkt.Records) {
				t.Fatalf("slab %d records, fresh %d", len(recs), len(pkt.Records))
			}
			for j := range recs {
				if r := pkt.Records[j]; r.Exporter != "fuzz" {
					t.Fatalf("record exporter %q", r.Exporter)
				} else if recs[j] != r {
					t.Fatalf("record %d: slab %+v != fresh %+v", j, recs[j], r)
				}
			}
		}
		// The sequence audit stays sane on arbitrary input, and identical
		// across the two decoders.
		gaps, lost, reordered := dec.SequenceStats()
		ig, il, ir := into.SequenceStats()
		if gaps < 0 || reordered < 0 {
			t.Fatalf("negative sequence stats: %d, %d", gaps, reordered)
		}
		if gaps != ig || lost != il || reordered != ir {
			t.Fatalf("sequence stats diverge: fresh %d/%d/%d, slab %d/%d/%d",
				gaps, lost, reordered, ig, il, ir)
		}
	})
}
