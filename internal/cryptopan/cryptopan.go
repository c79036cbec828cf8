// Package cryptopan implements prefix-preserving IP address anonymization
// following the Crypto-PAn construction (Xu, Fan, Ammar, Moon: "Prefix-
// Preserving IP Address Anonymization", ICNP 2002), built on AES from the
// standard library.
//
// The paper's Netflow data set has "all client IP addresses ... prefix-
// preserving anonymized": two addresses sharing a k-bit prefix map to
// anonymized addresses sharing exactly a k-bit prefix. This property is what
// allows the measurement pipeline to keep aggregating by routing prefix
// (persistence analysis, geolocation by prefix) without ever seeing real
// client addresses. The property-based tests in this package verify both the
// prefix-preservation invariant and bijectivity.
package cryptopan

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"net/netip"
)

// KeySize is the required key length in bytes: 16 for the AES-128 block key
// plus 16 for the padding secret, as in the reference implementation.
const KeySize = 32

// Anonymizer performs stateless prefix-preserving anonymization of IPv4 and
// IPv6 addresses. It is safe for concurrent use: the underlying cipher.Block
// is used read-only after construction.
type Anonymizer struct {
	block cipher.Block
	pad   [16]byte
}

// New creates an Anonymizer from a 32-byte key. The first 16 bytes key the
// AES block cipher; the last 16 bytes are encrypted once to form the secret
// padding block that seeds every per-bit coin flip.
func New(key []byte) (*Anonymizer, error) {
	if len(key) != KeySize {
		return nil, errors.New("cryptopan: key must be exactly 32 bytes")
	}
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	a := &Anonymizer{block: block}
	block.Encrypt(a.pad[:], key[16:])
	return a, nil
}

// Anonymize maps addr to its prefix-preserving anonymized counterpart. IPv4
// addresses are anonymized over 32 bits, IPv6 over 128 bits. IPv4-mapped
// IPv6 addresses are treated as IPv4, matching how flow exports canonicalize
// them.
func (a *Anonymizer) Anonymize(addr netip.Addr) netip.Addr {
	addr = addr.Unmap()
	return a.walk(addr, addr, 0)
}

// walk anonymizes addr from bit from (a multiple of 8) on, and takes the
// bits before it from done: the anonymized form of an address that shares
// them with addr. Both are of one family, IPv4 or IPv6, never IPv4-mapped.
func (a *Anonymizer) walk(addr, done netip.Addr, from int) netip.Addr {
	if addr.Is4() {
		orig, out := addr.As4(), done.As4()
		copy(out[from/8:], orig[from/8:])
		a.anonymizeBits(orig[:], out[:], from)
		return netip.AddrFrom4(out)
	}
	orig, out := addr.As16(), done.As16()
	copy(out[from/8:], orig[from/8:])
	a.anonymizeBits(orig[:], out[:], from)
	return netip.AddrFrom16(out)
}

// anonymizeBits implements the Crypto-PAn bit walk: for each prefix length
// i, the first i bits of the original address select a pseudorandom bit
// that is XORed into bit i of the output. Two inputs agreeing on their
// first k bits therefore produce identical coin flips for positions
// 0..k-1, which is exactly the prefix-preservation property. out starts as
// a copy of orig, and the walk starts at bit from: the caller has already
// anonymized the bits before it.
func (a *Anonymizer) anonymizeBits(orig, out []byte, from int) {
	var input [16]byte
	var enc [16]byte
	for i := from; i < len(orig)*8; i++ {
		// Compose the cipher input: the first i bits of the original
		// address followed by the padding block for the rest.
		copy(input[:], a.pad[:])
		// Whole bytes of original prefix.
		nb := i / 8
		copy(input[:nb], orig[:nb])
		// The partial byte: keep the top (i%8) original bits, fill the
		// remainder from the pad.
		if rem := i % 8; rem != 0 {
			mask := byte(0xFF << (8 - rem))
			input[nb] = orig[nb]&mask | a.pad[nb]&^mask
		}
		a.block.Encrypt(enc[:], input[:])
		// The most significant bit of the ciphertext is the coin flip
		// for output bit i.
		flip := enc[0] >> 7
		out[i/8] ^= flip << (7 - uint(i%8))
	}
}

// Memo remembers the mappings an Anonymizer has made. A flow trace names
// the same client on many records, and the bit walk spends one AES block per
// address bit: a Memo walks each distinct address once, and walks only the
// last octet of an address whose other octets it has seen before, since
// prefix preservation makes those bits common to every address that shares
// them. A Memo is not safe for concurrent use: each ingestion lane owns
// one, while the Anonymizer behind them all stays shared. It grows with the
// distinct addresses it is given.
type Memo struct {
	anon *Anonymizer
	seen map[netip.Addr]netip.Addr
	// nets maps an address with its last octet zeroed to its anonymized
	// form; every address of that octet block shares all of its bits but
	// the last eight.
	nets map[netip.Addr]netip.Addr
}

// NewMemo returns an empty memo over a.
func NewMemo(a *Anonymizer) *Memo {
	return &Memo{anon: a, seen: make(map[netip.Addr]netip.Addr), nets: make(map[netip.Addr]netip.Addr)}
}

// Anonymize returns exactly what the memo's Anonymizer returns for addr.
func (m *Memo) Anonymize(addr netip.Addr) netip.Addr {
	addr = addr.Unmap()
	if out, ok := m.seen[addr]; ok {
		return out
	}
	if !addr.IsValid() {
		return m.anon.Anonymize(addr)
	}
	from := addr.BitLen() - 8
	net := netip.PrefixFrom(addr, from).Masked().Addr()
	done, ok := m.nets[net]
	if !ok {
		done = m.anon.walk(net, net, 0)
		m.nets[net] = done
	}
	out := m.anon.walk(addr, done, from)
	m.seen[addr] = out
	return out
}

// AnonymizePrefix anonymizes a routing prefix: the network bits are mapped
// through the same bit walk (so prefix relationships between prefixes are
// preserved) and the host bits are zeroed.
func (a *Anonymizer) AnonymizePrefix(p netip.Prefix) netip.Prefix {
	anon := a.Anonymize(p.Addr())
	return netip.PrefixFrom(anon, p.Bits()).Masked()
}
