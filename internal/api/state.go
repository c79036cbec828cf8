// The shard→router representation of the data endpoints. A clustered
// query router does not want a shard's rendering — it merges shard
// state and renders once itself — so ?format=state answers
// /api/v1/snapshot and /api/v1/query with the state behind the JSON
// body, and a durable shard ships the fold itself, not a rendering of
// it: the exact part as a streaming state blob straight from the fold
// target (streaming.Range.Stored — no hour point, district name or spike
// is built for a router), the long-horizon part of a day/week answer as
// a tier frame, both in the codecs the durable store writes to disk,
// behind one small header.
// It rides the same ETag, response-cache, deadline and tracing plumbing
// as the JSON representation; `format` is part of the request
// parameters, so validators and cache keys keep the two apart.
//
// The representation is internal to a cluster: it is versioned by its
// header, not by the v1 schema, and a router and its shards must agree
// on it (upgrade shards before routers).
//
//	 0  magic "CWSS"                  4
//	 4  version                       1
//	 5  flags (bit 0: tail included)  1
//	 6  level (0 exact, 1 day, 2 week) 1
//	 7  reserved, zero                1
//	 8  origin, unix nanoseconds      8
//	16  origin zone, seconds east     4
//	20  frames merged                 4
//	24  tier frames merged            4
//	28  raw residual frames merged    4
//	32  state length                  4
//	36  frame length                  4
//	40  CRC-32 (IEEE) of all else     4
//	44  state, then frame
package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// StateMediaType is the Content-Type of the shard-state representation.
const StateMediaType = "application/vnd.cwatrace.shard-state"

const (
	stateMagic     = "CWSS"
	stateVersion   = 1
	stateHeaderLen = 44
	stateCRCOff    = 40
	flagTail       = 1
	// maxZoneSeconds bounds the origin's zone offset (UTC±18h covers
	// every real zone); beyond it the header is corrupt.
	maxZoneSeconds = 18 * 3600
)

// ErrBadState marks shard-state bytes the decoder refuses.
var ErrBadState = errors.New("api: bad shard state")

// ShardState is one shard's decoded contribution to a data fan-out.
type ShardState struct {
	// State is the exact part, ready to fold (streaming.Fold):
	// the full history for a snapshot, the range (or, under a day/week
	// resolution, the raw residual) for a query. Its Window is the one the
	// shard rendered at; Origin is the shard's, in the shard's zone.
	State  *streaming.Stored
	Origin time.Time
	// Frames and TailIncluded are the query metadata (zero for snapshots).
	Frames       int
	TailIncluded bool
	// Resolution is the effective answer resolution of a day/week query
	// and LongHorizon its tiered part as a frame; both are zero on the
	// exact path. TierFrames/RawFrames are the sources behind it.
	Resolution  tier.Resolution
	LongHorizon *tier.Frame
	TierFrames  int
	RawFrames   int
}

// encodeState renders state — the fold behind a store answer
// (QueryResult.State) — and the answer's query metadata as shard state: what
// the state the rendered snapshot carries encodes to, so the router
// merges precisely what it would have reconstructed from the JSON body.
// Like renderBody it renders into room, from its start.
func encodeState(room []byte, st *streaming.Stored, origin time.Time, res *store.QueryResult) ([]byte, error) {
	buf, err := st.AppendBinary(append(room[:0], make([]byte, stateHeaderLen)...), origin)
	if err != nil {
		return nil, err
	}
	stateLen := len(buf) - stateHeaderLen
	copy(buf, stateMagic)
	buf[4] = stateVersion
	if res.TailIncluded {
		buf[5] = flagTail
	}
	if lh := res.LongHorizon; lh != nil {
		f, err := res.Frame()
		if err != nil {
			return nil, err
		}
		buf = append(buf, tier.EncodeFrame(f)...)
		buf[6] = byte(f.Level)
		binary.BigEndian.PutUint32(buf[24:], uint32(lh.TierFrames))
		binary.BigEndian.PutUint32(buf[28:], uint32(lh.RawFrames))
	}
	_, zone := origin.Zone()
	binary.BigEndian.PutUint64(buf[8:], uint64(origin.UnixNano()))
	binary.BigEndian.PutUint32(buf[16:], uint32(int32(zone)))
	binary.BigEndian.PutUint32(buf[20:], uint32(res.Frames))
	binary.BigEndian.PutUint32(buf[32:], uint32(stateLen))
	binary.BigEndian.PutUint32(buf[36:], uint32(len(buf)-stateHeaderLen-stateLen))
	binary.BigEndian.PutUint32(buf[stateCRCOff:], stateCRC(buf))
	return buf, nil
}

// stateCRC checksums everything but the CRC field itself.
func stateCRC(buf []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, buf[:stateCRCOff])
	return crc32.Update(crc, crc32.IEEETable, buf[stateHeaderLen:])
}

// DecodeState parses shard-state bytes. They cross a trust boundary (a
// router decodes what a network peer sent), so arbitrary input is
// ErrBadState, never a panic, and allocates no more than the codecs
// underneath allow (streaming.MaxWindowHours of hourly bins).
func DecodeState(data []byte) (*ShardState, error) {
	if len(data) < stateHeaderLen {
		return nil, fmt.Errorf("%w: %d header bytes", ErrBadState, len(data))
	}
	if string(data[:4]) != stateMagic || data[4] != stateVersion {
		return nil, fmt.Errorf("%w: magic %q version %d", ErrBadState, data[:4], data[4])
	}
	level := tier.Level(data[6])
	if data[5]&^flagTail != 0 || level > tier.LevelWeek || data[7] != 0 {
		return nil, fmt.Errorf("%w: flags %#x level %d reserved %#x", ErrBadState, data[5], data[6], data[7])
	}
	stateLen := uint64(binary.BigEndian.Uint32(data[32:]))
	frameLen := uint64(binary.BigEndian.Uint32(data[36:]))
	if stateLen+frameLen != uint64(len(data)-stateHeaderLen) || (frameLen != 0) != (level != 0) {
		return nil, fmt.Errorf("%w: %d state + %d frame bytes at level %d in a %d-byte body",
			ErrBadState, stateLen, frameLen, level, len(data))
	}
	if binary.BigEndian.Uint32(data[stateCRCOff:]) != stateCRC(data) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadState)
	}
	zone := int(int32(binary.BigEndian.Uint32(data[16:])))
	if zone < -maxZoneSeconds || zone > maxZoneSeconds {
		return nil, fmt.Errorf("%w: origin zone offset %ds", ErrBadState, zone)
	}
	// The state blob keeps the origin as an instant; the header restores
	// the zone it is rendered in, and DecodeStored refuses a blob anchored
	// at a different instant.
	st := &ShardState{
		Origin:       time.Unix(0, int64(binary.BigEndian.Uint64(data[8:]))).In(time.FixedZone("", zone)),
		Frames:       int(binary.BigEndian.Uint32(data[20:])),
		TailIncluded: data[5]&flagTail != 0,
		TierFrames:   int(binary.BigEndian.Uint32(data[24:])),
		RawFrames:    int(binary.BigEndian.Uint32(data[28:])),
	}
	payload := data[stateHeaderLen:]
	var err error
	st.State, err = streaming.DecodeStored(streaming.Config{Origin: st.Origin}, payload[:stateLen])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if level != 0 {
		if st.LongHorizon, err = tier.DecodeFrame(payload[stateLen:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadState, err)
		}
		if st.LongHorizon.Level != level {
			return nil, fmt.Errorf("%w: level %d frame under a level %d header", ErrBadState, st.LongHorizon.Level, level)
		}
		st.Resolution = level.Resolution()
	}
	return st, nil
}
