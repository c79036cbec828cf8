package store

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
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
	f.Add(appendRecordFrame(nil, recTypeFrame, appendFramePayload(nil, frameMeta{Meta: tier.Meta{Seq: 1, MinHour: -1, MaxHour: -1}}, nil)))
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

// FuzzRunFold holds the run cover to the per-frame fold it replaced. The
// input is a program for a store small enough to build per run and long
// enough for runs of raw, day and week frames: up to ten weeks, one op
// per day choosing its kept hours (none: an accounting-only frame, or no
// frame at all), a late record for an earlier day, a second checkpoint
// mid-day or none that day, and which clients, some of them in districts.
// MaxFrames is small, so compaction regroups the raw frames as the days
// go. Every span between six bounds, open ones included, at every
// resolution must answer the bytes foldPerFrame computes — the JSON the
// body renders and the state a shard ships — and again after two more
// days, whose checkpoints compact past the runs the first round built,
// and with records left in the live tail. A twin store that is fed the
// same appends and never checkpoints answers the snapshot, late count
// included, with the same JSON and the same state after every round:
// the live view does not depend on where checkpoints fell.
func FuzzRunFold(f *testing.F) {
	model := geo.Germany()
	var infos []geodb.PrefixInfo
	for i, d := range model.Districts()[:40] {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24)
		infos = append(infos, geodb.PrefixInfo{Prefix: p, RouterID: fmt.Sprintf("R%03d", i), DistrictID: d.ID, ISPName: "Blau"})
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	cfg := streaming.Config{WindowHours: 48, TopK: 5, DB: db, Model: model}
	f.Add([]byte{68, 0, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{20, 3, 0x17, 0x0b, 0x40, 0x25, 0x83, 0x12, 0x2f})
	f.Add([]byte{60, 17, 0x91, 0x33, 0x00, 0x47, 0x0c, 0x66, 0x2a, 0x15, 0xe1})
	f.Add([]byte{30, 2, 0xcb, 0x03, 0x0b, 0xc9, 0x5a}) // records four days behind a 48-hour window

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		days := 2 + int(prog[0])%70
		s := mustOpen(t, t.TempDir(), Options{Analytics: cfg, MaxFrames: 8 + int(prog[1])%24, Tier: true, Sync: SyncNever})
		defer s.Close()
		twin := mustOpen(t, t.TempDir(), Options{Analytics: cfg, Sync: SyncNever})
		defer twin.Close()
		ops := prog[2:]
		play := func(day int, checkpoint bool) {
			op := ops[day%len(ops)]
			var batch []netflow.Record
			for k := 0; k < int(op&7); k++ {
				for c := 0; c < 3; c++ {
					client := (day*3 + c + int(op>>6)) % 60 * 256
					batch = append(batch, keptRecord(day*24+(k*5+int(op>>5))%24, client, uint64(100+k+c)))
				}
			}
			if op&8 != 0 && day > 0 {
				batch = append(batch, keptRecord((day-1-int(op>>6)%day)*24+3, 7*256, 50))
			}
			if len(batch) > 0 || op&64 == 0 {
				batch = append(batch, droppedRecord(day*24, day))
			}
			half := len(batch) / 2
			for i, part := range [][]netflow.Record{batch[:half], batch[half:]} {
				if len(part) > 0 {
					if err := s.Append(part); err != nil {
						t.Fatal(err)
					}
					if err := twin.Append(part); err != nil {
						t.Fatal(err)
					}
				}
				if checkpoint && (i == 1 && op&32 == 0 || i == 0 && op&16 != 0) {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for day := 0; day < days; day++ {
			play(day, true)
		}
		hours := 24 * days
		bounds := []time.Time{{}, at(5), at(hours / 3), at(hours/2 + 7), at(hours - 1), at(hours + 48)}
		ask := func() {
			for _, from := range bounds {
				for _, to := range bounds {
					if !from.IsZero() && !to.IsZero() && !from.Before(to) {
						continue
					}
					for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay, tier.ResolutionWeek, tier.ResolutionAuto} {
						checkAgainstPerFrame(t, s, from, to, res)
					}
				}
			}
			got, err := s.SnapshotResult()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.SnapshotResult()
			if err != nil {
				t.Fatal(err)
			}
			if a, b := answerOf(t, got), answerOf(t, want); a != b {
				t.Fatalf("the snapshot answers\n%q\nthe store that never checkpointed\n%q", a, b)
			}
		}
		ask()
		play(days, true)
		play(days+1, true)
		play(days+2, false)
		ask()
	})
}
