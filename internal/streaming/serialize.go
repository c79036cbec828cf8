// Analytics state (de)serialization: the full-fidelity binary codec the
// durable store (internal/store) uses for checkpoint frames. A frame must
// restore *exactly* the shard state — including the complete per-prefix
// counters, which the rendered Snapshot truncates to TopK — so recovery
// and historical range queries reproduce live results byte for byte. The
// encoding is deterministic (maps are emitted in sorted order): the same
// shard state always marshals to the same bytes, which lets the store CRC
// frames and lets tests compare checkpoints structurally.
package streaming

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"cwatrace/internal/wire"
)

// stateVersion is the Analytics binary state codec version.
const stateVersion = 1

// MaxWindowHours is the plausibility bound on hour indices and window
// lengths: 20 years of hourly bins past Origin (a multiple of 64, so a
// shard's window never rounds past it). It caps three things
// consistently: ingest/merge reject records beyond it as Late (a forged
// timestamp or garbage exporter clock must not widen a shard to a
// window that later reads reject), DecodeStored refuses a larger declared
// window or a window ending at or past it (a state's bins lie within its
// window, so no decoded bin is past it; the record-layer CRC bounds no
// allocation), and the durable store validates frame metadata hour spans
// against it before sizing merge windows.
const MaxWindowHours = 20 * 366 * 24

// MarshalBinary encodes the shard's complete aggregate state. The shard
// is not modified; callers must hold whatever lock guards live ingestion.
func (a *Analytics) MarshalBinary() ([]byte, error) {
	st := a.stored()
	return st.AppendBinary(nil, a.cfg.Origin)
}

// AppendBinary appends the state's encoding to buf: the one writer of the
// format decodeStored reads. origin is the instant hour 0 is anchored at
// (a Stored does not carry it; its readers check it against their own).
// The counter tables are emitted in key order whatever order st holds
// them in, so equal states encode to equal bytes. Unless buf brings the
// room, the result holds exactly its length: the API keeps encoded states
// for as long as their ETag is in use.
func (st *Stored) AppendBinary(buf []byte, origin time.Time) ([]byte, error) {
	size := 1 + 8 + 4 + 8 + 8 + 8 + 4 + 8*nReasons + 4 + binRowLen*len(st.bins) + 4 + 1
	for _, p := range st.prefixes {
		size += minPrefixRowLen
		if !p.Addr().Is4() {
			size += 12
		}
	}
	if st.hasDistricts {
		size += 4
		var long string
		st.districts.Each(func(_ uint32, id string, _ uint64) {
			if size += minDistrictRowLen + len(id); len(id) > math.MaxUint16 {
				long = id
			}
		})
		if long != "" {
			return nil, fmt.Errorf("streaming: district id %q too long", long)
		}
	}
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(buf)+size), buf...)
	}
	buf = append(buf, stateVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(origin.UnixNano()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.window))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(st.maxHour)))
	buf = binary.BigEndian.AppendUint64(buf, st.late)
	buf = binary.BigEndian.AppendUint64(buf, st.located)

	buf = binary.BigEndian.AppendUint32(buf, uint32(nReasons))
	for _, n := range st.dropped {
		buf = binary.BigEndian.AppendUint64(buf, n)
	}

	// Populated window bins, oldest hour first.
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.bins)))
	for _, bin := range st.bins {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(bin.hour)))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(bin.flows))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(bin.bytes))
	}

	// Full prefix counters in address order.
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.prefixes)))
	for _, i := range ascending(st.prefixes, lessPrefix) {
		addr := st.prefixes[i].Addr()
		if addr.Is4() {
			b := addr.As4()
			buf = append(buf, 4)
			buf = append(buf, b[:]...)
		} else {
			b := addr.As16()
			buf = append(buf, 16)
			buf = append(buf, b[:]...)
		}
		buf = append(buf, byte(st.prefixes[i].Bits()))
		buf = binary.BigEndian.AppendUint64(buf, st.prefixCount[i])
	}

	// District rollup (flag + entries in id order).
	if !st.hasDistricts {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.districts.Len()))
	st.districts.Each(func(_ uint32, id string, flows uint64) {
		buf = append(buf, byte(len(id)>>8), byte(len(id)))
		buf = append(buf, id...)
		buf = binary.BigEndian.AppendUint64(buf, flows)
	})
	return buf, nil
}

// ascending returns the indexes of keys in less order.
func ascending[K any](keys []K, less func(a, b K) bool) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	byKey := func(i, j int) bool { return less(keys[order[i]], keys[order[j]]) }
	if !sort.SliceIsSorted(order, byKey) {
		sort.Slice(order, byKey)
	}
	return order
}

// UnmarshalAnalyticsStored reconstructs a shard from MarshalBinary
// output, adopting the window length embedded in the state instead of
// requiring it to match cfg (Origin must match): a checkpoint frame is
// persisted at a window wide enough to hold its whole hour span, which
// can exceed the configured one. DB and Model may differ — a restored
// shard keeps district counts even when the reader has no geolocation
// sidecar. Readers that only fold the state into another shard use
// DecodeStored + MergeStored instead and never build a shard.
//
// The restored shard is New at the state's window, the state folded in
// with MergeStored — its bins enter through bin — and the header's
// maxHour, restored as written (a fold would recompute it from the bins;
// DecodeStored holds it below MaxWindowHours, as ingest holds a shard's),
// so MarshalBinary of the result reproduces canonical input byte for
// byte.
func UnmarshalAnalyticsStored(cfg Config, data []byte) (*Analytics, error) {
	st, err := DecodeStored(cfg, data)
	if err != nil {
		return nil, err
	}
	cfg.WindowHours = st.window
	a := New(cfg)
	a.MergeStored(st)
	a.maxHour = st.maxHour
	return a, nil
}

// DecodeStored parses MarshalBinary output into its compact form,
// adopting the window length embedded in the state (cfg supplies the
// Origin the state must have been captured under). It is the one walk
// over the state format: UnmarshalAnalyticsStored is built on it, so
// every bound and error is shared.
func DecodeStored(cfg Config, data []byte) (*Stored, error) {
	d := wire.Cursor{Buf: data}
	if v := d.U8(); v != stateVersion {
		return nil, fmt.Errorf("streaming: state version %d, want %d", v, stateVersion)
	}
	origin := time.Unix(0, int64(d.U64())).UTC()
	st := &Stored{window: int(d.U32())}
	if d.Err == nil {
		cfg = cfg.withDefaults()
		if !origin.Equal(cfg.Origin) {
			return nil, fmt.Errorf("streaming: state origin %s does not match config origin %s", origin, cfg.Origin)
		}
		if st.window <= 0 || st.window > MaxWindowHours {
			return nil, fmt.Errorf("streaming: implausible state window length %d", st.window)
		}
	}
	st.maxHour = int(int64(d.U64()))
	if d.Err == nil && (st.maxHour < -1 || st.maxHour >= MaxWindowHours) {
		return nil, fmt.Errorf("streaming: implausible state window end %d", st.maxHour)
	}
	st.late = d.U64()
	st.located = d.U64()

	if n := int(d.U32()); d.Err == nil && n != nReasons {
		return nil, fmt.Errorf("streaming: state has %d drop reasons, want %d", n, nReasons)
	}
	for i := range st.dropped {
		st.dropped[i] = d.U64()
	}

	// Declared counts are not trusted for sizing: every table is capped by
	// what the remaining bytes could hold at the smallest row size.
	nBins := int(d.U32())
	st.bins = make([]hourBin, 0, min(nBins, len(d.Buf)/binRowLen))
	ordered := true
	for i := 0; i < nBins && d.Err == nil; i++ {
		h := int(int64(d.U64()))
		flows := math.Float64frombits(d.U64())
		bytes := math.Float64frombits(d.U64())
		if d.Err != nil {
			break
		}
		// No writer ever encoded an hour past int32 (hours were once kept
		// in an int32 column), so one is as far outside any window as
		// one past maxHour; refusing it keeps the accepted states the
		// ones every earlier reader accepted.
		if h < 0 || h > st.maxHour || h > math.MaxInt32 || (st.maxHour >= 0 && h <= st.maxHour-st.window) {
			return nil, fmt.Errorf("streaming: state bin hour %d outside window ending at %d", h, st.maxHour)
		}
		if n := len(st.bins); n > 0 && h <= st.bins[n-1].hour {
			ordered = false
		}
		st.bins = append(st.bins, hourBin{hour: h, flows: flows, bytes: bytes})
	}
	if !ordered {
		// Not MarshalBinary's order: sort, and let the last entry for an
		// hour win, which is what writing each bin to its hour did.
		sort.SliceStable(st.bins, func(i, j int) bool { return st.bins[i].hour < st.bins[j].hour })
		kept := st.bins[:0]
		for i, bin := range st.bins {
			if i+1 == len(st.bins) || st.bins[i+1].hour != bin.hour {
				kept = append(kept, bin)
			}
		}
		st.bins = kept
	}

	nPrefixes := int(d.U32())
	prefixes := newStoredTable(min(nPrefixes, len(d.Buf)/minPrefixRowLen))
	for i := 0; i < nPrefixes && d.Err == nil; i++ {
		fam := d.U8()
		var addr netip.Addr
		switch fam {
		case 4:
			var b [4]byte
			d.Bytes(b[:])
			addr = netip.AddrFrom4(b)
		case 16:
			var b [16]byte
			d.Bytes(b[:])
			addr = netip.AddrFrom16(b)
		default:
			if d.Err == nil {
				return nil, fmt.Errorf("streaming: state prefix family %d", fam)
			}
		}
		bits := int(d.U8())
		count := d.U64()
		if d.Err != nil {
			break
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			return nil, fmt.Errorf("streaming: state prefix %s/%d: %v", addr, bits, err)
		}
		prefixes.set(p, count)
	}
	st.prefixes, st.prefixCount = prefixes.keys, prefixes.counts

	if d.U8() == 1 {
		st.hasDistricts = true
		// Each id resolves here, once: a fold adds the state by index.
		nDistricts := int(d.U32())
		for i := 0; i < nDistricts && d.Err == nil; i++ {
			idLen := int(d.U8())<<8 | int(d.U8())
			id := d.Take(idLen)
			count := d.U64()
			if d.Err != nil {
				break
			}
			idx, text := ResolveDistrict(id)
			st.districts.set(idx, text, count)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("streaming: truncated state: %v", d.Err)
	}
	if len(d.Buf) != 0 {
		return nil, fmt.Errorf("streaming: %d trailing state bytes", len(d.Buf))
	}
	return st, nil
}

// Encoded row sizes: a bin is hour + flows + bytes; the smallest prefix
// row is an IPv4 one (family, address, bits, count) and the smallest
// district row has an empty id (length, count).
const (
	binRowLen         = 24
	minPrefixRowLen   = 1 + 4 + 1 + 8
	minDistrictRowLen = 2 + 8
)

// storedTable collects the prefix table of a state in encoded order. A
// repeated key overwrites its count in place — what assigning through the
// interning map did — but the map that finds repeats is built only once
// the keys stop ascending: MarshalBinary emits them strictly ascending,
// so canonical input never builds it.
type storedTable struct {
	keys   []netip.Prefix
	counts []uint64
	index  map[netip.Prefix]int
}

func newStoredTable(sizeHint int) *storedTable {
	return &storedTable{keys: make([]netip.Prefix, 0, sizeHint), counts: make([]uint64, 0, sizeHint)}
}

func (t *storedTable) set(k netip.Prefix, count uint64) {
	n := len(t.keys)
	if t.index == nil && n > 0 && !lessPrefix(t.keys[n-1], k) {
		t.index = make(map[netip.Prefix]int, n)
		for i, have := range t.keys {
			t.index[have] = i
		}
	}
	if t.index != nil {
		if i, ok := t.index[k]; ok {
			t.counts[i] = count
			return
		}
		t.index[k] = n
	}
	t.keys = append(t.keys, k)
	t.counts = append(t.counts, count)
}
