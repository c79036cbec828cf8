package sketch

// The sketch wire/disk codec. Every marshaled sketch is one record in the
// serving stack's one envelope (internal/wire: version, kind, length,
// CRC-32), so a reader can always tell a cleanly written sketch from bit
// rot. A corrupted sketch is rejected with ErrCorrupt — it must never be
// merged into a healthy estimate (registers full of garbage would
// silently inflate a cardinality forever, since HLL merge is max). The
// envelope's version also versions the layouts below: a register count or
// bucket layout change bumps it, and old bytes become unreadable rather
// than misread. Decoding arbitrary bytes never panics; the fuzz target
// pins that.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cwatrace/internal/wire"
)

// Sketch kinds.
const (
	kindHLL      byte = 1
	kindQuantile byte = 2
)

// maxPayload bounds a sketch payload; anything larger is corruption,
// not an allocation request.
const maxPayload = 1 << 20

// ErrCorrupt marks framing or checksum damage in a marshaled sketch.
var ErrCorrupt = errors.New("sketch: corrupt")

// readFrame parses one framed sketch of the wanted kind at the head of
// data, returning the payload (aliasing data) and the bytes consumed. A
// sketch cut short is as corrupt as a damaged one: nothing appends to a
// sketch, so there is no torn tail to tell apart.
func readFrame(data []byte, want byte) (payload []byte, n int, err error) {
	kind, payload, n, err := wire.ReadFrame(data, maxPayload)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if kind != want {
		return nil, 0, fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, kind, want)
	}
	return payload, n, nil
}

// AppendBinary appends the framed encoding of h to buf. The encoding is
// deterministic: equal sketches encode to equal bytes, which is what
// lets the associativity tests compare merges bitwise.
func (h *HLL) AppendBinary(buf []byte) []byte {
	return wire.AppendFrame(buf, kindHLL, h.reg[:])
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *HLL) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil), nil }

// DecodeHLL parses one framed HLL at the head of data, returning the
// bytes consumed. Arbitrary input yields an error, never a panic.
func DecodeHLL(data []byte) (*HLL, int, error) {
	payload, n, err := readFrame(data, kindHLL)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) != hllM {
		return nil, 0, fmt.Errorf("%w: %d HLL registers, want %d", ErrCorrupt, len(payload), hllM)
	}
	h := &HLL{}
	copy(h.reg[:], payload)
	// A register can never exceed the max rank AddHash produces. The CRC
	// already catches transmission damage; this bound rejects a sketch
	// that was CRC-framed by something other than this encoder, so a
	// hand-crafted register file cannot poison every future merge.
	const maxRank = 64 - hllP + 1
	for i, r := range h.reg {
		if r > maxRank {
			return nil, 0, fmt.Errorf("%w: register %d rank %d exceeds %d", ErrCorrupt, i, r, maxRank)
		}
	}
	return h, n, nil
}

// AppendBinary appends the framed encoding of q to buf (bucket count,
// then the counts; the layout itself is pinned by the envelope version).
func (q *Quantile) AppendBinary(buf []byte) []byte {
	payload := make([]byte, 0, 4+8*len(q.counts))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(q.counts)))
	for _, c := range q.counts {
		payload = binary.BigEndian.AppendUint64(payload, c)
	}
	return wire.AppendFrame(buf, kindQuantile, payload)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (q *Quantile) MarshalBinary() ([]byte, error) { return q.AppendBinary(nil), nil }

// DecodeQuantile parses one framed quantile histogram at the head of
// data, returning the bytes consumed. The bucket count must match this
// version's layout exactly — counts under a different layout have a
// different meaning, and merging them would corrupt quantiles silently.
func DecodeQuantile(data []byte) (*Quantile, int, error) {
	payload, n, err := readFrame(data, kindQuantile)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) < 4 {
		return nil, 0, fmt.Errorf("%w: quantile payload of %d bytes", ErrCorrupt, len(payload))
	}
	nb := int(binary.BigEndian.Uint32(payload))
	if nb != len(quantBounds) {
		return nil, 0, fmt.Errorf("%w: %d quantile buckets, want %d", ErrCorrupt, nb, len(quantBounds))
	}
	if len(payload) != 4+8*nb {
		return nil, 0, fmt.Errorf("%w: quantile payload %d bytes, want %d", ErrCorrupt, len(payload), 4+8*nb)
	}
	q := NewQuantile()
	var total uint64
	for i := 0; i < nb; i++ {
		c := binary.BigEndian.Uint64(payload[4+8*i:])
		q.counts[i] = c
		next := total + c
		if next < total {
			return nil, 0, fmt.Errorf("%w: quantile counts overflow", ErrCorrupt)
		}
		total = next
	}
	q.total = total
	return q, n, nil
}
