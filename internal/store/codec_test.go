package store

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/tier"
	"cwatrace/internal/wire"
)

func sampleRecords() []netflow.Record {
	v6 := netflow.Record{
		Key: netflow.Key{
			Src:     netip.MustParseAddr("2001:db8::1"),
			Dst:     netip.MustParseAddr("2001:db8::2"),
			SrcPort: 443,
			DstPort: 51000,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  2,
		Bytes:    900,
		First:    time.Date(2020, 6, 16, 9, 0, 0, 123456789, time.UTC),
		Last:     time.Date(2020, 6, 16, 9, 0, 2, 0, time.UTC),
		Exporter: "ISP/BE-001",
	}
	return []netflow.Record{
		keptRecord(3, 7, 1234),
		droppedRecord(5, 9),
		v6,
	}
}

func TestFlowRecordRoundTrip(t *testing.T) {
	for i, want := range sampleRecords() {
		buf := appendFlowRecord(nil, &want)
		got, n, err := decodeFlowRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("record %d consumed %d of %d bytes", i, n, len(buf))
		}
		// The codec canonicalizes timestamps to UTC (same instant).
		want.First, want.Last = want.First.UTC(), want.Last.UTC()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// EncodeRecord renders one flow record in the canonical payload encoding:
// a byte key for record multisets.
func EncodeRecord(r netflow.Record) []byte { return appendFlowRecord(nil, &r) }

func TestEncodeRecordCanonical(t *testing.T) {
	r := keptRecord(1, 2, 500)
	if string(EncodeRecord(r)) != string(EncodeRecord(r)) {
		t.Fatal("EncodeRecord is not deterministic")
	}
	other := keptRecord(1, 3, 500)
	if string(EncodeRecord(r)) == string(EncodeRecord(other)) {
		t.Fatal("distinct records encode identically")
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	recs := sampleRecords()
	payload := appendBatchPayload(nil, recs)
	var got []netflow.Record
	if err := decodeBatchPayload(payload, func(r netflow.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	// Trailing garbage after the declared count is corruption.
	if err := decodeBatchPayload(append(payload, 0xAB), func(netflow.Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

// appendRecordFrame is the encode side of readRecord, as the tests that
// rebuild WAL bytes by hand spell it.
func appendRecordFrame(buf []byte, typ byte, payload []byte) []byte {
	return wire.AppendFrame(buf, typ, payload)
}

func TestFramePayloadRoundTrip(t *testing.T) {
	info := frameMeta{Meta: tier.Meta{Seq: 7, BaseSeg: 2, CoveredSeg: 5, MinHour: 3, MaxHour: 40}, CoveredOff: 4096, Records: 1234}
	state := []byte("opaque-state")
	payload := appendFramePayload(nil, info, state)
	got, gotState, err := decodeFramePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != info || string(gotState) != string(state) {
		t.Fatalf("round trip: %+v / %q", got, gotState)
	}
	if _, _, err := decodeFramePayload(payload[:frameInfoLen-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short frame payload: %v", err)
	}
}
