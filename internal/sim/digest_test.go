package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"slices"
	"testing"
)

// traceDigests hashes a run's record stream, in order and field by field,
// and its ground-truth labels in address order.
func traceDigests(res *Result) (records, labels string) {
	h := sha256.New()
	var buf []byte
	addr := func(a netip.Addr) {
		b := a.As16()
		buf = append(buf, byte(a.BitLen()))
		buf = append(buf, b[:]...)
	}
	for i := range res.Records {
		r := &res.Records[i]
		buf = buf[:0]
		addr(r.Src)
		addr(r.Dst)
		buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		buf = append(buf, r.Proto)
		buf = binary.BigEndian.AppendUint64(buf, r.Packets)
		buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.First.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Last.UnixNano()))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Exporter)))
		buf = append(buf, r.Exporter...)
		h.Write(buf)
	}
	records = hex.EncodeToString(h.Sum(nil))

	addrs := make([]netip.Addr, 0, len(res.Labels))
	for a := range res.Labels {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, netip.Addr.Compare)
	h.Reset()
	for _, a := range addrs {
		buf = buf[:0]
		addr(a)
		buf = append(buf, res.Labels[a])
		h.Write(buf)
	}
	return records, hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigestsPinned pins the simulator's output byte for byte: the
// record stream and the labels of two full study windows, serial and on
// every CPU. A change to the engine's sorting, sharding or anonymization
// that moves one record or one label fails here, not in a figure.
func TestTraceDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full study windows at two worker counts")
	}
	cases := []struct {
		scale           int
		seed            int64
		records, labels string
	}{
		{10000, 20200616,
			"d6a44691d49c6ae52b61418726979d7f82b84d08e899fba2344d223b2e240fb0",
			"5654d95f33fe912963346b5fa20311426471247f0c0ce590b53fc077abbb6133"},
		{3000, 1,
			"24d457efd4e395acd32f5ba08516492d13d491e3a8b7ebed6ab73d665b7f7acc",
			"6d8ff4acfef0c38df9e6aba74cf5d7ea8adf7cd9f50e7186131c7a2707f53bc4"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 0} {
			cfg := DefaultConfig()
			cfg.Scale, cfg.Seed, cfg.Workers = tc.scale, tc.seed, workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			records, labels := traceDigests(res)
			if records != tc.records || labels != tc.labels {
				t.Errorf("scale %d seed %d workers %d: records %s labels %s, want %s %s",
					tc.scale, tc.seed, workers, records, labels, tc.records, tc.labels)
			}
		}
	}
}
