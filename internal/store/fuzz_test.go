package store

import (
	"errors"
	"testing"

	"cwatrace/internal/netflow"
	"cwatrace/internal/wire"
)

// FuzzDecode hammers the store record codec — the framing layer plus
// the batch payload decoder recovery trusts — with arbitrary bytes. The
// decoder must never panic and must never mistake damage for a valid
// record (torn and corrupt inputs yield ErrTorn/ErrCorrupt); intact
// frames must re-encode to the identical bytes. Seeds are real encoded
// batches, the same shapes a quick sim export replays into the WAL.
func FuzzDecode(f *testing.F) {
	for _, batch := range [][]netflow.Record{
		{keptRecord(0, 1, 500)},
		{keptRecord(3, 7, 1234), droppedRecord(5, 9)},
		sampleRecords(),
	} {
		f.Add(appendRecordFrame(nil, recTypeBatch, appendBatchPayload(nil, batch)))
	}
	f.Add(appendRecordFrame(nil, recTypeFrame, appendFramePayload(nil, frameInfo{Seq: 1, MinHour: -1, MaxHour: -1}, nil)))
	f.Add([]byte{})
	f.Add([]byte{wire.Version, recTypeBatch, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range []byte{recTypeBatch, recTypeFrame} {
			payload, n, err := readRecord(data, typ)
			if err != nil {
				if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			if n < wire.HeaderLen || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			// An accepted frame survives a byte-exact re-encode round trip:
			// the CRC saw exactly these payload bytes.
			redone := appendRecordFrame(nil, typ, payload)
			if string(redone) != string(data[:n]) {
				t.Fatal("re-encoded frame differs from accepted input")
			}
			switch typ {
			case recTypeBatch:
				if err := decodeBatchPayload(payload, func(r netflow.Record) error {
					// Decoded records re-encode deterministically (the
					// canonical-key property the crash tests rely on).
					if len(EncodeRecord(r)) == 0 {
						t.Fatal("empty canonical encoding")
					}
					return nil
				}); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("batch decode error class: %v", err)
				}
			case recTypeFrame:
				if _, _, err := decodeFramePayload(payload); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("frame decode error class: %v", err)
				}
			}
		}
	})
}
