package store

// The store's on-disk record codec: every WAL and checkpoint file is a
// sequence of records in the serving stack's one envelope (internal/wire:
// version, type, length, CRC-32), so a reader can always tell a cleanly
// written record from a torn tail or bit rot. The flow-record payload
// encoding is compact and deterministic — the same record always encodes
// to the same bytes — which the crash tests exploit to compare WAL
// contents as canonical byte strings. Record types: recTypeBatch (one
// appended batch of flow records) and recTypeFrame (one checkpoint frame:
// metadata + marshaled streaming.Analytics state).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/wire"
)

// Record types.
const (
	recTypeBatch byte = 1
	recTypeFrame byte = 2
)

// maxPayload bounds a single record payload; anything larger is treated
// as corruption rather than an allocation request.
const maxPayload = 64 << 20

// Codec errors. ErrTorn marks a record cut off by a crash mid-write (the
// recoverable case: truncate and move on); ErrCorrupt marks framing or
// checksum damage inside otherwise intact data.
var (
	ErrTorn    = errors.New("store: torn record")
	ErrCorrupt = errors.New("store: corrupt record")
)

// readRecord parses one record of the wanted type at the head of data,
// returning its payload (aliasing data) and the total bytes consumed. A
// record that runs past the end of data is ErrTorn; a bad version,
// oversized length, CRC mismatch or foreign type is ErrCorrupt.
func readRecord(data []byte, want byte) (payload []byte, n int, err error) {
	typ, payload, n, err := wire.ReadFrame(data, maxPayload)
	switch {
	case errors.Is(err, wire.ErrShort):
		return nil, 0, fmt.Errorf("%w: %v", ErrTorn, err)
	case err != nil:
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case typ != want:
		return nil, 0, fmt.Errorf("%w: record type %d, want %d", ErrCorrupt, typ, want)
	}
	return payload, n, nil
}

// appendFlowRecord encodes one flow record:
// fam(1) addr fam(1) addr srcPort(2) dstPort(2) proto(1)
// packets(8) bytes(8) firstUnixNano(8) lastUnixNano(8) expLen(1) exporter.
func appendFlowRecord(buf []byte, r *netflow.Record) []byte {
	appendAddr := func(buf []byte, a netip.Addr) []byte {
		if a.Is4() || a.Is4In6() {
			b := a.As4()
			buf = append(buf, 4)
			return append(buf, b[:]...)
		}
		b := a.As16()
		buf = append(buf, 16)
		return append(buf, b[:]...)
	}
	buf = appendAddr(buf, r.Src)
	buf = appendAddr(buf, r.Dst)
	buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
	buf = append(buf, r.Proto)
	buf = binary.BigEndian.AppendUint64(buf, r.Packets)
	buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.First.UnixNano()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Last.UnixNano()))
	if len(r.Exporter) > 255 {
		// Mirrors the trace writer's limit; long names are a programming
		// error upstream, truncation here would silently corrupt replay.
		panic(fmt.Sprintf("store: exporter name %q too long", r.Exporter))
	}
	buf = append(buf, byte(len(r.Exporter)))
	return append(buf, r.Exporter...)
}

// decodeFlowRecord parses one flow record at the head of data, returning
// the bytes consumed.
func decodeFlowRecord(data []byte) (netflow.Record, int, error) {
	var rec netflow.Record
	d := wire.Cursor{Buf: data}
	readAddr := func() netip.Addr {
		switch fam := d.U8(); {
		case fam == 4:
			var b [4]byte
			d.Bytes(b[:])
			return netip.AddrFrom4(b)
		case fam == 16:
			var b [16]byte
			d.Bytes(b[:])
			return netip.AddrFrom16(b)
		case d.Err == nil:
			d.Err = fmt.Errorf("address family %d", fam)
		}
		return netip.Addr{}
	}
	rec.Src = readAddr()
	rec.Dst = readAddr()
	ports := d.U32()
	rec.SrcPort, rec.DstPort = uint16(ports>>16), uint16(ports)
	rec.Proto = d.U8()
	rec.Packets = d.U64()
	rec.Bytes = d.U64()
	rec.First = time.Unix(0, int64(d.U64())).UTC()
	rec.Last = time.Unix(0, int64(d.U64())).UTC()
	rec.Exporter = string(d.Take(int(d.U8())))
	if d.Err != nil {
		return rec, 0, fmt.Errorf("%w: flow record: %v", ErrCorrupt, d.Err)
	}
	return rec, len(data) - len(d.Buf), nil
}

// appendBatchPayload encodes one batch: count(4) + records.
func appendBatchPayload(buf []byte, recs []netflow.Record) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for i := range recs {
		buf = appendFlowRecord(buf, &recs[i])
	}
	return buf
}

// decodeBatchPayload streams the records of one batch payload to fn.
func decodeBatchPayload(payload []byte, fn func(netflow.Record) error) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: batch payload of %d bytes", ErrCorrupt, len(payload))
	}
	count := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	for i := 0; i < count; i++ {
		rec, n, err := decodeFlowRecord(payload)
		if err != nil {
			return err
		}
		payload = payload[n:]
		if err := fn(rec); err != nil {
			return err
		}
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing batch bytes", ErrCorrupt, len(payload))
	}
	return nil
}

// readBatch parses the WAL record at the head of data into its batch,
// returning the bytes consumed.
func readBatch(data []byte) (batch []netflow.Record, n int, err error) {
	payload, n, err := readRecord(data, recTypeBatch)
	if err != nil {
		return nil, 0, err
	}
	err = decodeBatchPayload(payload, func(r netflow.Record) error {
		batch = append(batch, r)
		return nil
	})
	return batch, n, err
}

// frameInfoLen is the metadata head of a checkpoint-frame payload: seq,
// base and covered segment, covered offset, hour bounds and records. The
// marshaled analytics state follows it.
const frameInfoLen = 7 * 8

// appendFramePayload encodes a checkpoint frame payload.
func appendFramePayload(buf []byte, info frameMeta, state []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, info.Seq)
	buf = binary.BigEndian.AppendUint64(buf, info.BaseSeg)
	buf = binary.BigEndian.AppendUint64(buf, info.CoveredSeg)
	buf = binary.BigEndian.AppendUint64(buf, uint64(info.CoveredOff))
	buf = binary.BigEndian.AppendUint64(buf, uint64(info.MinHour))
	buf = binary.BigEndian.AppendUint64(buf, uint64(info.MaxHour))
	buf = binary.BigEndian.AppendUint64(buf, info.Records)
	return append(buf, state...)
}

// decodeFramePayload splits a checkpoint frame payload into its metadata
// and the marshaled analytics state.
func decodeFramePayload(payload []byte) (frameMeta, []byte, error) {
	var info frameMeta
	if len(payload) < frameInfoLen {
		return info, nil, fmt.Errorf("%w: frame payload of %d bytes", ErrCorrupt, len(payload))
	}
	info.Seq = binary.BigEndian.Uint64(payload)
	info.BaseSeg = binary.BigEndian.Uint64(payload[8:])
	info.CoveredSeg = binary.BigEndian.Uint64(payload[16:])
	info.CoveredOff = int64(binary.BigEndian.Uint64(payload[24:]))
	info.MinHour = int64(binary.BigEndian.Uint64(payload[32:]))
	info.MaxHour = int64(binary.BigEndian.Uint64(payload[40:]))
	info.Records = binary.BigEndian.Uint64(payload[48:])
	return info, payload[frameInfoLen:], nil
}
