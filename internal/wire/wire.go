// Package wire is the one binary framing under every codec the serving
// stack writes to disk or sends between its daemons: the record envelope
// (sketches, tier frames, WAL and checkpoint records) and the cursor that
// walks a payload. Each codec keeps its own sentinel errors, payload bound
// and plausibility checks; what lives here is only what they all spelled
// the same way.
//
//	+---------+------+-------------+-----------+
//	| version | kind | payload len | CRC-32    | payload ...
//	| 1 byte  | 1 B  | 4 bytes     | 4 (IEEE)  |
//	+---------+------+-------------+-----------+
//
// Everything is big-endian; the CRC covers version, kind and payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the envelope's version byte. Bumping it makes old bytes
// unreadable rather than misread.
const Version = 1

// HeaderLen is the fixed envelope header size.
const HeaderLen = 1 + 1 + 4 + 4

// ErrShort marks data that ends before the envelope it announces does (a
// write cut off by a crash); ErrCorrupt marks a bad version, an oversized
// length or a checksum mismatch inside data that is all there.
var (
	ErrShort   = errors.New("short frame")
	ErrCorrupt = errors.New("corrupt frame")
)

func checksum(head, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(head[:2]), crc32.IEEETable, payload)
}

// AppendFrame appends payload in its envelope.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	head := [2]byte{Version, kind}
	buf = append(buf, head[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, checksum(head[:], payload))
	return append(buf, payload...)
}

// ReadFrame parses the envelope at the head of data: its kind, its
// payload (aliasing data) and the bytes it occupies. A declared length
// above maxPayload is corruption, not an allocation request.
func ReadFrame(data []byte, maxPayload int) (kind byte, payload []byte, n int, err error) {
	if len(data) < HeaderLen {
		return 0, nil, 0, fmt.Errorf("%w: %d header bytes", ErrShort, len(data))
	}
	if data[0] != Version {
		return 0, nil, 0, fmt.Errorf("%w: version %d", ErrCorrupt, data[0])
	}
	plen := int(binary.BigEndian.Uint32(data[2:6]))
	if plen > maxPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if len(data) < HeaderLen+plen {
		return 0, nil, 0, fmt.Errorf("%w: payload %d of %d bytes", ErrShort, len(data)-HeaderLen, plen)
	}
	payload = data[HeaderLen : HeaderLen+plen]
	if checksum(data, payload) != binary.BigEndian.Uint32(data[6:10]) {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch on %d payload bytes", ErrCorrupt, plen)
	}
	return data[1], payload, HeaderLen + plen, nil
}

// Cursor reads big-endian fields off the front of Buf, the unread rest of
// a payload. The first read past the end latches Err and every read after
// it returns zero, so a decoder checks Err where a value decides something
// and once at the end. A count read from the payload bounds a loop, never
// an allocation: size tables by len(Buf).
type Cursor struct {
	Buf []byte
	Err error
}

// Take returns the next n bytes (aliasing the payload), nil once failed.
func (c *Cursor) Take(n int) []byte {
	if c.Err != nil {
		return nil
	}
	if uint(n) > uint(len(c.Buf)) {
		c.Err = fmt.Errorf("want %d bytes, have %d", n, len(c.Buf))
		return nil
	}
	out := c.Buf[:n]
	c.Buf = c.Buf[n:]
	return out
}

func (c *Cursor) U8() byte {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes fills dst with the next len(dst) bytes.
func (c *Cursor) Bytes(dst []byte) { copy(dst, c.Take(len(dst))) }
