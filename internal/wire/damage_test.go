package wire_test

// One damage table for every codec on the envelope, each driven through
// its package's public decoder: cut the bytes at every length, flip every
// byte, and plant an absurd count at every payload offset (under a valid
// CRC, so it reaches the payload parser). Short input is the package's
// torn error where it has one and its corrupt error where it does not;
// damage is never accepted, never a panic and never sizes an allocation.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cwatrace/internal/netflow"
	"cwatrace/internal/sketch"
	"cwatrace/internal/store"
	"cwatrace/internal/tier"
	"cwatrace/internal/wire"
)

// decodeBudget bounds what one decode of damaged input may allocate. The
// largest honest decode in the table (a read-only Open of the golden data
// dir) stays well under it; one table sized by a planted 0xFFFFFFFF would
// not.
const decodeBudget = 4 << 20

type damageCase struct {
	name string
	// valid is one enveloped record; decode runs it through the package.
	valid  []byte
	decode func(t *testing.T, data []byte) error
	// short is what a cut record reads as, corrupt what a damaged one
	// does (the same error where the package tells no torn tail apart).
	short, corrupt error
	// firstCut is the shortest truncation that must fail.
	firstCut int
}

func damageCases(t *testing.T) []damageCase {
	datadir := storeFiles(t, filepath.Join(goldenDir, "datadir"))
	const segHeaderLen = 16 // internal/store/store.go: magic, then the segment seq
	seg, ckpt := datadir["wal-0000000000000003.seg"], datadir["ckpt-0000000000000001.ck"]

	// Each store case rewrites the one damaged file of its own small data
	// dir. walkDamagedWAL plants the record in the first of two segments:
	// WalkWAL forgives damage only in the last one, where it is the crash's
	// torn tail.
	write := func(t *testing.T, dir, name string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	walDir, ckptDir, cfg := t.TempDir(), t.TempDir(), fixtureConfig(t)
	second := append([]byte(nil), seg...)
	second[segHeaderLen-1]++ // the next segment seq
	write(t, walDir, "wal-0000000000000004.seg", second)
	write(t, ckptDir, "meta.json", datadir["meta.json"])
	walkDamagedWAL := func(t *testing.T, data []byte) error {
		write(t, walDir, "wal-0000000000000003.seg", append(append([]byte(nil), seg[:segHeaderLen]...), data...))
		return store.WalkWAL(walDir, func([]netflow.Record) error { return nil })
	}
	openDamagedCheckpoint := func(t *testing.T, data []byte) error {
		write(t, ckptDir, "ckpt-0000000000000001.ck", data)
		st, err := store.Open(ckptDir, store.Options{Analytics: cfg, ReadOnly: true})
		if err == nil {
			st.Close()
		}
		return err
	}
	return []damageCase{
		{name: "sketch/hll", valid: golden(t, "hll.bin"), short: sketch.ErrCorrupt, corrupt: sketch.ErrCorrupt,
			decode: func(_ *testing.T, data []byte) error { _, _, err := sketch.DecodeHLL(data); return err }},
		{name: "sketch/quantile", valid: golden(t, "quantile.bin"), short: sketch.ErrCorrupt, corrupt: sketch.ErrCorrupt,
			decode: func(_ *testing.T, data []byte) error { _, _, err := sketch.DecodeQuantile(data); return err }},
		{name: "tier/frame", valid: datadir["tier-d-0000000000000003.tf"], short: tier.ErrCorrupt, corrupt: tier.ErrCorrupt,
			decode: func(_ *testing.T, data []byte) error { _, err := tier.DecodeFrame(data); return err }},
		// A segment cut before its first record is an empty segment, not a
		// torn one.
		{name: "store/wal", valid: seg[segHeaderLen:], short: store.ErrTorn, corrupt: store.ErrCorrupt,
			decode: walkDamagedWAL, firstCut: 1},
		{name: "store/checkpoint", valid: ckpt, short: store.ErrTorn, corrupt: store.ErrCorrupt,
			decode: openDamagedCheckpoint},
	}
}

func TestDamageIsRefusedByEveryDecoder(t *testing.T) {
	for _, c := range damageCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(t, c.valid); err != nil {
				t.Fatalf("the undamaged record: %v", err)
			}
			for cut := c.firstCut; cut < len(c.valid); cut++ {
				if err := c.decode(t, c.valid[:cut]); !errors.Is(err, c.short) {
					t.Fatalf("cut at %d of %d: %v, want %v", cut, len(c.valid), err, c.short)
				}
			}
			for i := range c.valid {
				bad := append([]byte(nil), c.valid...)
				bad[i] ^= 0xFF
				err := c.decode(t, bad)
				// A damaged length field can also announce more bytes than
				// there are, which is what a torn record looks like.
				inLength := i >= 2 && i < 6
				if !errors.Is(err, c.corrupt) && !(inLength && errors.Is(err, c.short)) {
					t.Fatalf("byte %d flipped: %v, want %v", i, err, c.corrupt)
				}
			}

			// Counts the CRC vouches for: every payload offset in turn reads
			// as 0xFFFFFFFF. Whatever the parser makes of it — most offsets
			// are not counts, a few decode to a different valid record — it
			// allocates like a record of this size, not like the count.
			kind, payload := c.valid[1], c.valid[wire.HeaderLen:]
			var before, after runtime.MemStats
			for i := 0; i+4 <= len(payload); i++ {
				p := append([]byte(nil), payload...)
				copy(p[i:], "\xff\xff\xff\xff")
				bad := wire.AppendFrame(nil, kind, p)
				runtime.ReadMemStats(&before)
				err := c.decode(t, bad)
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > decodeBudget {
					t.Fatalf("count planted at payload byte %d: the decode allocated %d bytes (%v)", i, got, err)
				}
			}
		})
	}
}
