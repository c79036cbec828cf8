package tier

// The tier frame disk codec: one record per tier file in the serving
// stack's one envelope (internal/wire), the frame's level as the record
// kind. Encoding is canonical — districts sorted by ID, buckets by
// StartHour, fixed-width integers big-endian — so byte-identical frames
// mean identical content, which the determinism tests compare directly.
// Decoding arbitrary bytes returns ErrCorrupt, never panics;
// FuzzTierDecode pins that.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
	"cwatrace/internal/wire"
)

// maxPayload bounds one tier frame payload; larger lengths are treated
// as corruption, not allocation requests. A year of hourly buckets plus
// both sketches is well under a mebibyte; 64 MiB matches the store's
// record bound.
const maxPayload = 64 << 20

// maxDistricts bounds the decoded district list (the live system has
// ~400; the bound only rejects corrupt counts).
const maxDistricts = 1 << 16

// maxBuckets bounds the decoded bucket list (20 years of daily buckets
// is ~7300).
const maxBuckets = 1 << 20

// ErrCorrupt marks framing or checksum damage in a tier frame.
var ErrCorrupt = errors.New("tier: corrupt frame")

// envelopeError is ErrCorrupt in the words of the wire error, which names
// the damage already.
type envelopeError struct{ error }

func (e envelopeError) Error() string        { return "tier: " + e.error.Error() }
func (e envelopeError) Is(target error) bool { return target == ErrCorrupt }

// EncodeFrame renders the canonical framed encoding of f.
func EncodeFrame(f *Frame) []byte {
	payload := make([]byte, 0, 256+24*len(f.Districts)+24*len(f.Buckets))
	payload = binary.BigEndian.AppendUint64(payload, f.Seq)
	payload = binary.BigEndian.AppendUint64(payload, f.BaseSeg)
	payload = binary.BigEndian.AppendUint64(payload, f.CoveredSeg)
	payload = binary.BigEndian.AppendUint64(payload, uint64(f.MinHour))
	payload = binary.BigEndian.AppendUint64(payload, uint64(f.MaxHour))
	payload = binary.BigEndian.AppendUint32(payload, f.Inputs)
	payload = binary.BigEndian.AppendUint64(payload, f.Total)
	payload = binary.BigEndian.AppendUint64(payload, f.Kept)
	payload = append(payload, byte(nReasons))
	for r := 0; r < nReasons; r++ {
		var n uint64
		if r < len(f.Dropped) {
			n = f.Dropped[r]
		}
		payload = binary.BigEndian.AppendUint64(payload, n)
	}
	payload = binary.BigEndian.AppendUint64(payload, f.Late)
	payload = binary.BigEndian.AppendUint64(payload, f.Located)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(f.Districts)))
	for _, d := range f.Districts {
		payload = append(payload, byte(len(d.ID)))
		payload = append(payload, d.ID...)
		payload = binary.BigEndian.AppendUint64(payload, d.Flows)
	}
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(f.Buckets)))
	for _, b := range f.Buckets {
		payload = binary.BigEndian.AppendUint64(payload, uint64(b.StartHour))
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(b.Flows))
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(b.Bytes))
	}
	payload = f.Prefixes.AppendBinary(payload)
	payload = f.Presence.AppendBinary(payload)

	return wire.AppendFrame(make([]byte, 0, wire.HeaderLen+len(payload)), byte(f.Level), payload)
}

// fail latches a plausibility failure on the cursor, so the loops below
// stop on it exactly as they stop on a short read.
func fail(d *wire.Cursor, format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
}

// f64 reads a flow or byte count: finite and non-negative, or corrupt.
func f64(d *wire.Cursor) float64 {
	v := math.Float64frombits(d.U64())
	if d.Err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		fail(d, "implausible float %v", v)
	}
	return v
}

// DecodeFrame parses one framed tier frame. Arbitrary input yields
// ErrCorrupt, never a panic; a successful decode consumed the payload
// exactly and re-encodes to the same bytes (canonical form).
func DecodeFrame(data []byte) (*Frame, error) {
	kind, payload, n, err := wire.ReadFrame(data, maxPayload)
	if err != nil {
		return nil, envelopeError{err}
	}
	// A tier file holds exactly one frame: bytes after it are damage.
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the frame", ErrCorrupt, len(data)-n)
	}
	level := Level(kind)
	if level != LevelDay && level != LevelWeek {
		return nil, fmt.Errorf("%w: level %d", ErrCorrupt, kind)
	}

	f := &Frame{Level: level}
	d := &wire.Cursor{Buf: payload}
	f.Seq = d.U64()
	f.BaseSeg = d.U64()
	f.CoveredSeg = d.U64()
	f.MinHour = int64(d.U64())
	f.MaxHour = int64(d.U64())
	f.Inputs = d.U32()
	f.Total = d.U64()
	f.Kept = d.U64()
	if nr := int(d.U8()); d.Err == nil && nr != nReasons {
		// The reason set is part of the version; counts under a
		// different set mean something else and must not be summed.
		fail(d, "%d drop reasons, want %d", nr, nReasons)
	}
	f.Dropped = make([]uint64, nReasons)
	for r := 0; r < nReasons && d.Err == nil; r++ {
		f.Dropped[r] = d.U64()
	}
	f.Late = d.U64()
	f.Located = d.U64()

	nd := int(d.U32())
	if d.Err == nil && nd > maxDistricts {
		fail(d, "%d districts", nd)
	}
	var prevID string
	for i := 0; i < nd && d.Err == nil; i++ {
		idLen := int(d.U8())
		idx, id := streaming.ResolveDistrict(d.Take(idLen))
		if d.Err == nil && i > 0 && id <= prevID {
			fail(d, "district order %q after %q", id, prevID)
		}
		prevID = id
		f.Districts = append(f.Districts, District{ID: id, Flows: d.U64()})
		f.districtIdx = append(f.districtIdx, idx)
	}

	nb := int(d.U32())
	if d.Err == nil && nb > maxBuckets {
		fail(d, "%d buckets", nb)
	}
	width := int64(level.BucketHours())
	prevStart := int64(-1)
	for i := 0; i < nb && d.Err == nil; i++ {
		b := Bucket{StartHour: int64(d.U64())}
		if d.Err == nil && (b.StartHour < 0 || b.StartHour%width != 0 || b.StartHour <= prevStart) {
			fail(d, "bucket start %d after %d at width %d", b.StartHour, prevStart, width)
		}
		prevStart = b.StartHour
		b.Flows = f64(d)
		b.Bytes = f64(d)
		f.Buckets = append(f.Buckets, b)
	}
	if d.Err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.Err)
	}

	hll, n, err := sketch.DecodeHLL(d.Buf)
	if err != nil {
		return nil, fmt.Errorf("%w: prefix sketch: %v", ErrCorrupt, err)
	}
	quant, m, err := sketch.DecodeQuantile(d.Buf[n:])
	if err != nil {
		return nil, fmt.Errorf("%w: presence sketch: %v", ErrCorrupt, err)
	}
	if rest := len(d.Buf) - n - m; rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, rest)
	}
	f.Prefixes, f.Presence = hll, quant

	// Cross-field sanity the CRC cannot provide: the metadata must
	// describe a frame a fold could have produced.
	if f.CoveredSeg < f.BaseSeg {
		return nil, fmt.Errorf("%w: covered segment %d below base %d", ErrCorrupt, f.CoveredSeg, f.BaseSeg)
	}
	if (f.MinHour < 0) != (f.MaxHour < 0) || f.MaxHour < f.MinHour {
		return nil, fmt.Errorf("%w: hour bounds [%d, %d]", ErrCorrupt, f.MinHour, f.MaxHour)
	}
	return f, nil
}
