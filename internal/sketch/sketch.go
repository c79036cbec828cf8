// Package sketch holds the bounded-memory estimators the long-horizon
// history tiers carry: a HyperLogLog counting distinct client prefixes
// and a fixed-bucket quantile histogram summarizing per-prefix presence
// hours (the paper's T2 persistence metric). Both exist because the
// exact maps they replace grow without bound over a months-long capture
// — a year of churning /24s cannot ride along in every downsampled
// frame, but a 4 KiB register file can.
//
// Design rules, in the order they matter:
//
//   - Merges are associative, commutative and idempotent-safe at the
//     byte level: HLL merge is register-wise max, quantile merge is
//     bucket-wise add, so merge(a, merge(b, c)) and merge(merge(a, b), c)
//     marshal to identical bytes. streaming.Merge and the cluster
//     router's scatter-gather both fold sketches in whatever order
//     shards answer; associativity is what makes the fold order
//     invisible.
//   - Encodings are versioned, CRC-framed and deterministic (see
//     codec.go). A sketch travels inside tier frames on disk and inside
//     cluster responses on the wire; both ends must reject corruption
//     rather than merge garbage into an otherwise healthy estimate.
//   - Error bounds are pinned by tests, not prose: the HLL's relative
//     error (~1.04/sqrt(4096) = 1.6% typical) and the quantile
//     histogram's bucket-quantization error are compared against exact
//     batch recomputation on scenario-generated captures.
package sketch

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// hllP is the HLL precision: 2^hllP registers. 12 gives 4096 registers
// (4 KiB per sketch) and a typical relative error of 1.04/sqrt(4096) =
// 1.6% — small enough that a year-long distinct-prefix estimate stays
// inside the test-pinned 5% bound with margin, small enough to carry in
// every tier frame.
const hllP = 12

// hllM is the register count.
const hllM = 1 << hllP

// HLL is a HyperLogLog cardinality estimator over 64-bit hashes. The
// zero value is an empty sketch, ready to use.
type HLL struct {
	reg [hllM]uint8
}

// NewHLL builds an empty sketch.
func NewHLL() *HLL { return &HLL{} }

// HashString hashes an item into the 64-bit space AddHash consumes.
// FNV-1a alone clusters in the low bits for short similar strings (every
// client prefix differs in a handful of characters), so the finalizer of
// splitmix64 scrambles it; the composition is fixed — it is part of the
// sketch's deterministic identity across processes and releases, and
// registers computed with it are on disk in every tier frame.
func HashString(s string) uint64 { return hash(s) }

// HashBytes is HashString of the same bytes, for callers that format an
// item into a buffer of their own.
func HashBytes(b []byte) uint64 { return hash(b) }

func hash[T string | []byte](item T) uint64 {
	h := uint64(14695981039346656037) // FNV-1a, 64 bit
	for i := 0; i < len(item); i++ {
		h ^= uint64(item[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// AddHash folds one hashed item into the sketch.
func (h *HLL) AddHash(v uint64) {
	idx := v >> (64 - hllP)
	// Rank of the first set bit in the remaining 64-p bits, 1-based;
	// all-zero remainder ranks one past the end.
	rank := uint8(bits.LeadingZeros64(v<<hllP|1<<(hllP-1))) + 1
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Add folds one string item into the sketch via HashString.
func (h *HLL) Add(s string) { h.AddHash(HashString(s)) }

// Merge folds other into h (register-wise max). Merging is associative,
// commutative and idempotent, so fold order never changes the result. The
// max is taken eight registers per uint64: with y's top bits masked off,
// (x|H)-y borrows from no neighbouring byte and keeps H where the low
// seven bits of x reach y's; where the top bits differ, x's own decides.
func (h *HLL) Merge(other *HLL) {
	if other == nil {
		return
	}
	const H = 0x8080808080808080
	for i := 0; i < hllM; i += 8 {
		x, y := binary.LittleEndian.Uint64(h.reg[i:]), binary.LittleEndian.Uint64(other.reg[i:])
		ge := (x&^y | ^(x^y)&((x|H)-(y&^H))) & H // H in every byte where x >= y
		keep := (ge >> 7) * 0xff
		binary.LittleEndian.PutUint64(h.reg[i:], x&keep|y&^keep)
	}
}

// pow2neg is 2^-r for every rank a register can hold (AddHash ranks at
// most 64-hllP+1, DecodeHLL refuses more): Estimate's addends, looked up.
var pow2neg = func() (t [65]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the estimated distinct count: the standard HLL
// harmonic-mean estimator with the linear-counting correction for the
// small range, where the raw estimator is biased.
func (h *HLL) Estimate() uint64 {
	var (
		sum   float64
		zeros int
	)
	for _, r := range h.reg {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/float64(hllM))
	raw := alpha * hllM * hllM / sum
	if raw <= 2.5*hllM && zeros > 0 {
		raw = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return uint64(raw + 0.5)
}
