package tier

import (
	"bytes"
	"errors"
	"testing"

	"cwatrace/internal/wire"
)

// FuzzTierDecode hammers the tier frame codec (which transitively
// exercises the sketch codec — every frame carries both sketches) with
// arbitrary bytes: decoding never panics, damage is ErrCorrupt, and a
// successful decode re-encodes to the identical bytes, so a corrupted
// frame can never slip into a fold or an answer merge.
func FuzzTierDecode(f *testing.F) {
	day, err := FoldRaw(LevelDay, 3, testCfg(), []Input{
		input(0, 1, 1, shard(keptRecord(1, 1, 100), keptRecord(1, 2, 7), droppedRecord(1))),
		input(1, 26, 26, shard(keptRecord(26, 1, 10))),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeFrame(day))
	if week, err := foldWeek(4, day); err == nil {
		f.Add(EncodeFrame(week))
	}
	f.Add([]byte{})
	f.Add([]byte{wire.Version, byte(LevelDay), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0x41}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-codec error from arbitrary bytes: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeFrame(fr), data) {
			t.Fatal("decode→encode is not canonical")
		}
	})
}
