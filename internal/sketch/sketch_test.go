package sketch

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// enc marshals any sketch for bitwise comparison.
func enc(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestHLLMergeAssociativity pins merge(a, merge(b, c)) ==
// merge(merge(a, b), c) bitwise, plus order invariance — the property
// streaming.Merge and the cluster scatter-gather rely on, since shards
// answer in arbitrary order.
func TestHLLMergeAssociativity(t *testing.T) {
	mk := func(seed int64, n int) *HLL {
		h := NewHLL()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			h.Add(fmt.Sprintf("10.%d.%d.0/24", rng.Intn(256), rng.Intn(256)))
		}
		return h
	}
	a, b, c := mk(1, 5000), mk(2, 3000), mk(3, 7000)

	left := NewHLL()
	left.Merge(a)
	ab := NewHLL()
	ab.Merge(b)
	ab.Merge(c)
	left.Merge(ab)

	right := NewHLL()
	right.Merge(a)
	right.Merge(b)
	right.Merge(c)

	if !bytes.Equal(enc(t, left), enc(t, right)) {
		t.Fatal("HLL merge is not associative bitwise")
	}

	rev := NewHLL()
	rev.Merge(c)
	rev.Merge(b)
	rev.Merge(a)
	if !bytes.Equal(enc(t, rev), enc(t, right)) {
		t.Fatal("HLL merge is not order-invariant bitwise")
	}

	// Idempotence: merging a sketch twice changes nothing (register max).
	twice := NewHLL()
	twice.Merge(a)
	twice.Merge(a)
	once := NewHLL()
	once.Merge(a)
	if !bytes.Equal(enc(t, twice), enc(t, once)) {
		t.Fatal("HLL merge is not idempotent")
	}
}

// TestQuantileMergeAssociativity is the quantile half of the bitwise
// associativity contract.
func TestQuantileMergeAssociativity(t *testing.T) {
	mk := func(seed int64, n int) *Quantile {
		q := NewQuantile()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			q.Add(uint64(rng.Intn(8760))+1, 1)
		}
		return q
	}
	a, b, c := mk(1, 4000), mk(2, 2000), mk(3, 6000)

	left := NewQuantile()
	left.Merge(a)
	bc := NewQuantile()
	bc.Merge(b)
	bc.Merge(c)
	left.Merge(bc)

	right := NewQuantile()
	right.Merge(a)
	right.Merge(b)
	right.Merge(c)

	if !bytes.Equal(enc(t, left), enc(t, right)) {
		t.Fatal("quantile merge is not associative bitwise")
	}

	rev := NewQuantile()
	rev.Merge(c)
	rev.Merge(b)
	rev.Merge(a)
	if !bytes.Equal(enc(t, rev), enc(t, right)) {
		t.Fatal("quantile merge is not order-invariant bitwise")
	}
}

// TestHLLErrorBounds is the error table: estimated vs exact distinct
// counts across four decades of cardinality, each within the pinned 5%
// relative bound (typical HLL error at 4096 registers is 1.6%; 5%
// leaves deterministic-hash headroom without hiding a broken
// estimator).
func TestHLLErrorBounds(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		h := NewHLL()
		for i := 0; i < n; i++ {
			// Distinct /24-shaped strings, like the real prefix feed.
			h.Add(fmt.Sprintf("%d.%d.%d.0/24", i>>16&255, i>>8&255, i&255))
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		t.Logf("n=%6d estimate=%6.0f relative error=%.3f%%", n, got, 100*relErr)
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate %0.f, relative error %.2f%% exceeds 5%%", n, got, 100*relErr)
		}
	}
}

// TestQuantileErrorBounds is the quantile error table against exact
// recomputation: values up to quantExactMax are exact, larger values
// are within the geometric bucket's midpoint bound (~4.5%; pinned at
// 6% for rank-boundary slack).
func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var exact []uint64
	q := NewQuantile()
	for i := 0; i < 50000; i++ {
		// Presence-hours-shaped distribution: mostly short-lived
		// prefixes, a long tail of persistent ones (the paper's T2).
		v := uint64(math.Exp(rng.Float64()*math.Log(8760))) + 1
		exact = append(exact, v)
		q.Add(v, 1)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{0.10, 0.25, 0.50, 0.90, 0.99} {
		rank := int(math.Ceil(p*float64(len(exact)))) - 1
		want := exact[rank]
		got := q.At(p)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		t.Logf("p=%.2f exact=%5d sketch=%5d relative error=%.3f%%", p, want, got, 100*relErr)
		if want <= quantExactMax {
			if got != want {
				t.Errorf("p=%.2f: exact-range value %d reported as %d", p, want, got)
			}
		} else if relErr > 0.06 {
			t.Errorf("p=%.2f: exact %d, sketch %d, relative error %.2f%% exceeds 6%%", p, want, got, 100*relErr)
		}
	}
	if q.Count() != uint64(len(exact)) {
		t.Errorf("count %d, want %d", q.Count(), len(exact))
	}
}

// TestSketchRoundTrip pins encode→decode for both kinds (damage is the
// table in internal/wire's tests).
func TestSketchRoundTrip(t *testing.T) {
	h := NewHLL()
	for i := 0; i < 1000; i++ {
		h.Add(fmt.Sprintf("host-%d", i))
	}
	hb := enc(t, h)
	h2, n, err := DecodeHLL(hb)
	if err != nil || n != len(hb) {
		t.Fatalf("DecodeHLL: n=%d err=%v", n, err)
	}
	if !bytes.Equal(enc(t, h2), hb) {
		t.Fatal("HLL round trip changed bytes")
	}

	q := NewQuantile()
	for i := uint64(1); i < 500; i++ {
		q.Add(i*3, i)
	}
	qb := enc(t, q)
	q2, n, err := DecodeQuantile(qb)
	if err != nil || n != len(qb) {
		t.Fatalf("DecodeQuantile: n=%d err=%v", n, err)
	}
	if !bytes.Equal(enc(t, q2), qb) {
		t.Fatal("quantile round trip changed bytes")
	}

}

// TestHLLEstimateMonotoneSmall pins the linear-counting small range: a
// handful of distinct items estimates exactly.
func TestHLLEstimateMonotoneSmall(t *testing.T) {
	h := NewHLL()
	for i := 0; i < 10; i++ {
		h.Add(fmt.Sprintf("x%d", i))
		if est := h.Estimate(); est != uint64(i+1) {
			t.Fatalf("after %d adds: estimate %d", i+1, est)
		}
	}
}

// TestHashValuesAreFrozen pins the hash to values computed before it was
// inlined: HLL registers are persisted in tier frames, so an item must
// land in the register, at the rank, it always has. The register file of
// a fixed item set is pinned whole (by checksum) on top of single values.
func TestHashValuesAreFrozen(t *testing.T) {
	golden := map[string]uint64{
		"":                    0xf52a15e9a9b5e89b,
		"a":                   0x2c0bdbf481420f8,
		"100.64.3.0/24":       0xf8587e12ff34afca,
		"2001:db8::/32":       0x4e93fcbf364ec3f8,
		"::ffff:10.1.2.0/120": 0x5a934c7e20560f48,
		"invalid Prefix":      0x7020a0b475f38a13,
		"203.0.113.0/24":      0xf46cb6788e0372e4,
	}
	for item, want := range golden {
		if got := HashString(item); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", item, got, want)
		}
		if got := HashBytes([]byte(item)); got != want {
			t.Errorf("HashBytes(%q) = %#x, want %#x", item, got, want)
		}
	}

	h := NewHLL()
	var buf [64]byte
	for i := 0; i < 5000; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(64 + i>>16), byte(i >> 8), byte(i)}), 24+i%9)
		if i%2 == 0 {
			h.Add(p.String())
		} else {
			h.AddHash(HashBytes(p.AppendTo(buf[:0])))
		}
	}
	for i := 0; i < 300; i++ {
		var a [16]byte
		a[0], a[1], a[14], a[15] = 0x20, 0x01, byte(i>>8), byte(i)
		h.Add(netip.PrefixFrom(netip.AddrFrom16(a), 64+i%65).String())
	}
	if crc := crc32.ChecksumIEEE(h.reg[:]); crc != 0xea0dec2d || h.Estimate() != 5242 {
		t.Fatalf("register file checksum %#x estimate %d, want 0xea0dec2d and 5242", crc, h.Estimate())
	}
}

// TestHLLMergeIsTheByteWiseMax holds the eight-registers-a-word Merge to
// the loop it replaced, over every shape of register file a decoder can
// hand it: random bytes (a frame off the disk is not held to ranks a
// hash can produce), all-saturated, all-empty, and real sketches.
func TestHLLMergeIsTheByteWiseMax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	files := []func(i int) uint8{
		func(int) uint8 { return uint8(rng.Intn(256)) },
		func(int) uint8 { return uint8(rng.Intn(54)) },
		func(i int) uint8 { return []uint8{0, 0x7f, 0x80, 0xff}[rng.Intn(4)] },
		func(int) uint8 { return 0xff },
		func(int) uint8 { return 0 },
	}
	for round := 0; round < 200; round++ {
		var a, b HLL
		fa, fb := files[rng.Intn(len(files))], files[rng.Intn(len(files))]
		for i := range a.reg {
			a.reg[i], b.reg[i] = fa(i), fb(i)
		}
		want := a
		for i, r := range b.reg {
			if r > want.reg[i] {
				want.reg[i] = r
			}
		}
		a.Merge(&b)
		if a != want {
			for i := range a.reg {
				if a.reg[i] != want.reg[i] {
					t.Fatalf("round %d, register %d: merged to %#x, max is %#x", round, i, a.reg[i], want.reg[i])
				}
			}
		}
	}
}

// TestHLLEstimateIsTheLdexpSum holds Estimate's table lookup to the
// Ldexp loop it replaced, over random register files of every rank the
// table holds, empty ones, saturated ones and real sketches: the addends
// and their order are the same, so the result is bit for bit the same.
func TestHLLEstimateIsTheLdexpSum(t *testing.T) {
	ldexp := func(h *HLL) uint64 {
		var sum float64
		zeros := 0
		for _, r := range h.reg {
			sum += math.Ldexp(1, -int(r))
			if r == 0 {
				zeros++
			}
		}
		raw := 0.7213 / (1 + 1.079/float64(hllM)) * hllM * hllM / sum
		if raw <= 2.5*hllM && zeros > 0 {
			raw = hllM * math.Log(float64(hllM)/float64(zeros))
		}
		return uint64(raw + 0.5)
	}
	rng := rand.New(rand.NewSource(25))
	files := []func() uint8{
		func() uint8 { return uint8(rng.Intn(len(pow2neg))) },
		func() uint8 { return uint8(rng.Intn(4)) }, // the linear-counting range
		func() uint8 { return 64 - hllP + 1 },
		func() uint8 { return uint8(len(pow2neg) - 1) },
		func() uint8 { return 0 },
	}
	for round := 0; round < 300; round++ {
		var h HLL
		fill := files[round%len(files)]
		for i := range h.reg {
			h.reg[i] = fill()
		}
		if got, want := h.Estimate(), ldexp(&h); got != want {
			t.Fatalf("round %d: estimate %d, the Ldexp sum gives %d", round, got, want)
		}
	}
	for n := 1; n <= 1<<18; n *= 4 {
		h := NewHLL()
		for i := 0; i < n; i++ {
			h.Add(fmt.Sprint(i))
		}
		if got, want := h.Estimate(), ldexp(h); got != want {
			t.Fatalf("%d items: estimate %d, the Ldexp sum gives %d", n, got, want)
		}
	}
}

// BenchmarkHLLMerge is what a tier fold does per frame: two sketches of
// a few thousand prefixes each into an empty one (per merge).
func BenchmarkHLLMerge(b *testing.B) {
	x, y := NewHLL(), NewHLL()
	for i := 0; i < 3000; i++ {
		x.Add(fmt.Sprint("x", i))
		y.Add(fmt.Sprint("y", i))
	}
	for i := 0; i < b.N; i += 2 {
		var h HLL
		h.Merge(x)
		h.Merge(y)
	}
}
