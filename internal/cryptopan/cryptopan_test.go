package cryptopan

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func testKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	return key
}

func newTestAnonymizer(t *testing.T) *Anonymizer {
	t.Helper()
	a, err := New(testKey())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsBadKeys(t *testing.T) {
	for _, n := range []int{0, 16, 31, 33} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key must fail", n)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := newTestAnonymizer(t)
	addr := netip.MustParseAddr("203.0.113.7")
	if a.Anonymize(addr) != a.Anonymize(addr) {
		t.Fatal("anonymization must be deterministic")
	}
	b, err := New(testKey())
	if err != nil {
		t.Fatal(err)
	}
	if a.Anonymize(addr) != b.Anonymize(addr) {
		t.Fatal("same key must produce same mapping")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a := newTestAnonymizer(t)
	key2 := testKey()
	key2[0] ^= 0xFF
	b, err := New(key2)
	if err != nil {
		t.Fatal(err)
	}
	addr := netip.MustParseAddr("10.20.30.40")
	if a.Anonymize(addr) == b.Anonymize(addr) {
		t.Fatal("different keys should (overwhelmingly) produce different mappings")
	}
}

// commonPrefixLen32 counts the number of leading bits shared by two IPv4
// addresses.
func commonPrefixLen32(x, y netip.Addr) int {
	a := binary.BigEndian.Uint32(x.AsSlice())
	b := binary.BigEndian.Uint32(y.AsSlice())
	n := 0
	for n < 32 {
		mask := uint32(1) << (31 - uint(n))
		if a&mask != b&mask {
			break
		}
		n++
	}
	return n
}

// TestPrefixPreservation is the core Crypto-PAn property: the anonymized
// pair shares exactly as many prefix bits as the original pair.
func TestPrefixPreservation(t *testing.T) {
	a := newTestAnonymizer(t)
	f := func(x, y uint32) bool {
		var xb, yb [4]byte
		binary.BigEndian.PutUint32(xb[:], x)
		binary.BigEndian.PutUint32(yb[:], y)
		ax := netip.AddrFrom4(xb)
		ay := netip.AddrFrom4(yb)
		want := commonPrefixLen32(ax, ay)
		got := commonPrefixLen32(a.Anonymize(ax), a.Anonymize(ay))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBijective verifies injectivity on random pairs: distinct inputs map to
// distinct outputs (Crypto-PAn is a bijection on the 32-bit space).
func TestBijective(t *testing.T) {
	a := newTestAnonymizer(t)
	f := func(x, y uint32) bool {
		if x == y {
			return true
		}
		var xb, yb [4]byte
		binary.BigEndian.PutUint32(xb[:], x)
		binary.BigEndian.PutUint32(yb[:], y)
		return a.Anonymize(netip.AddrFrom4(xb)) != a.Anonymize(netip.AddrFrom4(yb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv6(t *testing.T) {
	a := newTestAnonymizer(t)
	x := netip.MustParseAddr("2001:db8::1")
	y := netip.MustParseAddr("2001:db8::2")
	z := netip.MustParseAddr("2a00:1450::5")
	ax, ay, az := a.Anonymize(x), a.Anonymize(y), a.Anonymize(z)
	if !ax.Is6() || !ay.Is6() || !az.Is6() {
		t.Fatal("IPv6 inputs must produce IPv6 outputs")
	}
	if ax == ay {
		t.Fatal("distinct IPv6 addresses collided")
	}
	// x and y share a 126-bit prefix, x and z only high bits; the
	// anonymized versions must reflect that ordering.
	sharedXY := commonPrefixLen128(ax, ay)
	sharedXZ := commonPrefixLen128(ax, az)
	if sharedXY < 64 {
		t.Fatalf("x,y share %d anonymized bits, expected long prefix", sharedXY)
	}
	if sharedXZ >= sharedXY {
		t.Fatalf("x,z share %d bits >= x,y %d bits", sharedXZ, sharedXY)
	}
}

func commonPrefixLen128(x, y netip.Addr) int {
	xs, ys := x.As16(), y.As16()
	n := 0
	for i := 0; i < 16; i++ {
		for b := 7; b >= 0; b-- {
			if (xs[i]>>uint(b))&1 != (ys[i]>>uint(b))&1 {
				return n
			}
			n++
		}
	}
	return n
}

func TestIPv4MappedTreatedAsIPv4(t *testing.T) {
	a := newTestAnonymizer(t)
	v4 := netip.MustParseAddr("192.0.2.1")
	mapped := netip.AddrFrom16(v4.As16()) // ::ffff:192.0.2.1
	if got := a.Anonymize(mapped); got != a.Anonymize(v4) {
		t.Fatalf("mapped form anonymized differently: %s vs %s", got, a.Anonymize(v4))
	}
}

func TestAnonymizePrefix(t *testing.T) {
	a := newTestAnonymizer(t)
	p := netip.MustParsePrefix("198.51.100.0/24")
	ap := a.AnonymizePrefix(p)
	if ap.Bits() != 24 {
		t.Fatalf("prefix length changed: %d", ap.Bits())
	}
	if ap != ap.Masked() {
		t.Fatal("anonymized prefix must be masked")
	}
	// Any address inside p must anonymize into ap.
	for _, s := range []string{"198.51.100.1", "198.51.100.200", "198.51.100.77"} {
		got := a.Anonymize(netip.MustParseAddr(s))
		if !ap.Contains(got) {
			t.Fatalf("anonymized %s = %s outside anonymized prefix %s", s, got, ap)
		}
	}
	// An address outside p must anonymize outside ap.
	out := a.Anonymize(netip.MustParseAddr("198.51.101.1"))
	if ap.Contains(out) {
		t.Fatal("address outside prefix anonymized into it")
	}
}

func TestConcurrentUse(t *testing.T) {
	a := newTestAnonymizer(t)
	addr := netip.MustParseAddr("100.64.12.34")
	want := a.Anonymize(addr)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			ok := true
			for j := 0; j < 200; j++ {
				if a.Anonymize(addr) != want {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent anonymization returned inconsistent results")
		}
	}
}

// TestReferenceVectors holds the bit walk to the sample output published
// with the Crypto-PAn reference implementation, directly and through a
// Memo.
func TestReferenceVectors(t *testing.T) {
	key := []byte{21, 34, 23, 141, 51, 164, 207, 128, 19, 10, 91, 22, 73, 144, 125, 16,
		216, 152, 143, 131, 121, 121, 101, 39, 98, 87, 76, 45, 42, 132, 34, 2}
	a, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(a)
	for in, want := range map[string]string{
		"128.11.68.132":       "135.242.180.132",
		"129.118.74.4":        "134.136.186.123",
		"130.132.252.244":     "133.68.164.234",
		"141.223.7.43":        "141.167.8.160",
		"::ffff:141.223.7.43": "141.167.8.160",
	} {
		addr := netip.MustParseAddr(in)
		if got := a.Anonymize(addr).String(); got != want {
			t.Errorf("Anonymize(%s) = %s, want %s", in, got, want)
		}
		if got := m.Anonymize(addr).String(); got != want {
			t.Errorf("Memo.Anonymize(%s) = %s, want %s", in, got, want)
		}
	}
}

// TestMemoMatchesAnonymize holds a Memo to its Anonymizer on the addresses
// it takes shortcuts for: a full /24 sweep (one walk of the network bits,
// then the last octet per address), random IPv4 and IPv6 addresses, each
// asked twice so the second answer comes from the memo, and the edge cases
// the Anonymizer itself defines.
func TestMemoMatchesAnonymize(t *testing.T) {
	a := newTestAnonymizer(t)
	m := NewMemo(a)
	var addrs []netip.Addr
	for i := 0; i < 256; i++ {
		addrs = append(addrs, netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var v4 [4]byte
		var v6 [16]byte
		rng.Read(v4[:])
		rng.Read(v6[:])
		addrs = append(addrs, netip.AddrFrom4(v4), netip.AddrFrom16(v6))
	}
	addrs = append(addrs,
		netip.MustParseAddr("::ffff:198.51.100.7"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.Addr{})
	for pass := 0; pass < 2; pass++ {
		for _, addr := range addrs {
			if got, want := m.Anonymize(addr), a.Anonymize(addr); got != want {
				t.Fatalf("pass %d: Memo.Anonymize(%s) = %s, Anonymize = %s", pass, addr, got, want)
			}
		}
	}
}

func BenchmarkAnonymizeIPv4(b *testing.B) {
	a, err := New(testKey())
	if err != nil {
		b.Fatal(err)
	}
	addr := netip.MustParseAddr("203.0.113.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Anonymize(addr)
	}
}
