package v1

// The append encoder of the two data bodies. A year-span hour answer is
// 8 736 rows of the same four fields; encoding/json walks each through
// reflection and formats every timestamp from scratch. AppendJSON writes
// the same bytes by appending the row arrays (hours, spikes,
// top_prefixes, districts, buckets) field by field, and hands whatever
// is rare or small back to encoding/json: a fractional or non-finite
// float, a string that needs escaping, a time RFC 3339 cannot hold, the
// census, presence, degraded and sketch fields — so the unusual cases and
// every error are encoding/json's own. The struct tags stay the schema of
// record; FuzzAppendJSON holds this file to json.Encoder's output.
//
// A dashboard polls year-span bodies whose hours rows are, but for the
// last few, the rows of the previous poll. A closed block is cutHours
// rows that start on a multiple of cutHours, run hour by hour in one zone
// and have a row behind them; its text — the rows, each with its comma —
// is the same in every body that spans it. Given somewhere to keep them
// (Blocks), the encoder asks for a closed block by its rows before
// rendering it and splices the kept text, and reports where the blocks
// lie (Cut) for the edge to send the deflate it holds of the kept ones.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// cutHours is the row count of one closed block of the hours array.
const cutHours = 128

// Block is the kept text of one closed block and, for the edge, its
// deflate as one chunk of a gzip member.
type Block struct{ Text, Deflated []byte }

// Blocks keeps closed blocks between bodies (api's block cache). A key is
// all a block's text depends on — first hour index, first instant and its
// zone offset, instant and offset of a zone change inside the block (zero
// without), every row's flows and bytes — and valid only during the call.
type Blocks interface {
	// Find returns the block kept under key, if any, and whether the key
	// was asked for before.
	Find(key []byte) (b *Block, met bool)
	// Keep files copies of key and text and returns the block, or nil.
	Keep(key, text []byte) *Block
}

// Cut places one closed block in a body: Block.Text is the body from Off
// on; a nil Block is one met for the first time, rendered and not kept.
type Cut struct {
	Off   int
	Block *Block
}

// AppendJSON appends the compact JSON encoding of q — what json.Marshal
// returns, byte for byte — to b, its closed blocks through blocks (nil:
// every row is rendered); cuts are the result's closed blocks, in order.
func (q *QueryResponse) AppendJSON(b []byte, blocks Blocks) (out []byte, cuts []Cut, err error) {
	e := encoder{b: b, blocks: blocks}
	e.query(q)
	return e.b, e.cuts, e.err
}

// AppendJSON is QueryResponse.AppendJSON for a snapshot body.
func (s *Snapshot) AppendJSON(b []byte, blocks Blocks) (out []byte, cuts []Cut, err error) {
	e := encoder{b: b, blocks: blocks}
	e.snapshot(s)
	return e.b, e.cuts, e.err
}

// encoder appends one body. The first error sticks and is the one
// encoding/json reports for the same value: fields are visited in
// declaration order and none is marshaled after a failure.
type encoder struct {
	b      []byte
	blocks Blocks
	cuts   []Cut
	err    error
	key    []byte
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(key string, v int64) {
	e.raw(key)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *encoder) uint(key string, v uint64) {
	e.raw(key)
	e.b = strconv.AppendUint(e.b, v, 10)
}

// marshaled appends a value that stays with encoding/json.
func (e *encoder) marshaled(key string, v any) {
	if e.err != nil {
		return
	}
	var j []byte
	j, e.err = json.Marshal(v)
	e.raw(key)
	e.b = append(e.b, j...)
}

// plain holds the bytes encoding/json copies into a string as they are:
// ASCII but controls, '"', '\\' and (HTML escaping) '<', '>' and '&'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// string appends s in quotes when encoding/json would copy it as it is —
// ids, state codes, names with umlauts: plain bytes and valid UTF-8 but
// U+2028 and U+2029.
func (e *encoder) string(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plain[c] {
			r, n := utf8.DecodeRuneInString(s[i:])
			if c < utf8.RuneSelf || r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				e.marshaled(key, s)
				return
			}
			i += n - 1
		}
	}
	e.raw(key)
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// float appends a whole-valued f — the series are counts — as the
// integer encoding/json prints it as.
func (e *encoder) float(key string, f float64) {
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		e.int(key, i)
		return
	}
	e.marshaled(key, f)
}

// time appends t as time.Time.MarshalJSON does; what that refuses (year,
// zone hour) is encoding/json's error.
func (e *encoder) time(key string, t time.Time) {
	b, err := t.AppendText(append(append(e.b, key...), '"'))
	if err != nil {
		e.marshaled(key, t)
		return
	}
	e.b = append(b, '"')
}

func (e *encoder) query(q *QueryResponse) {
	if q == nil {
		e.raw("null")
		return
	}
	e.time(`{"from":`, q.From)
	e.time(`,"to":`, q.To)
	e.int(`,"frames":`, int64(q.Frames))
	e.raw(`,"tail_included":`)
	e.b = strconv.AppendBool(e.b, q.TailIncluded)
	e.raw(`,"snapshot":`)
	e.snapshot(q.Snapshot)
	if q.Resolution != "" {
		e.string(`,"resolution":`, q.Resolution)
	}
	if q.LongHorizon != nil {
		e.longHorizon(q.LongHorizon)
	}
	if q.Degraded != nil {
		e.marshaled(`,"degraded":`, q.Degraded)
	}
	e.raw("}")
}

func (e *encoder) longHorizon(a *LongHorizon) {
	e.string(`,"long_horizon":{"resolution":`, string(a.Resolution))
	e.raw(`,"approximate":`)
	e.b = strconv.AppendBool(e.b, a.Approximate)
	e.int(`,"bucket_hours":`, int64(a.BucketHours))
	for i := range a.Buckets {
		p := &a.Buckets[i]
		e.int(rowKey(i, `,"buckets":[{"start_hour":`, `,{"start_hour":`), p.StartHour)
		if !p.Time.IsZero() {
			e.time(`,"time":`, p.Time)
		}
		e.float(`,"flows":`, p.Flows)
		e.float(`,"bytes":`, p.Bytes)
		e.raw("}")
	}
	e.endRows(len(a.Buckets))
	e.int(`,"tier_frames":`, int64(a.TierFrames))
	e.int(`,"raw_frames":`, int64(a.RawFrames))
	e.marshaled(`,"census":`, a.Census)
	e.uint(`,"late":`, a.Late)
	e.uint(`,"located":`, a.Located)
	e.districts(a.Districts)
	e.uint(`,"distinct_prefixes":`, a.DistinctPrefixes)
	e.marshaled(`,"presence":`, a.Presence)
	if len(a.PrefixSketch) > 0 {
		e.marshaled(`,"prefix_sketch":`, a.PrefixSketch)
	}
	if len(a.PresenceSketch) > 0 {
		e.marshaled(`,"presence_sketch":`, a.PresenceSketch)
	}
	e.raw("}")
}

func (e *encoder) snapshot(s *Snapshot) {
	if s == nil {
		e.raw("null")
		return
	}
	e.time(`{"origin":`, s.Origin)
	e.int(`,"window_hours":`, int64(s.WindowHours))
	e.int(`,"series_start":`, int64(s.SeriesStart))
	if n := len(s.Hours); n > cutHours && e.blocks != nil {
		e.cuts = make([]Cut, 0, n/cutHours)
	}
	for i := 0; i < len(s.Hours); i++ {
		// A block starts behind the comma (or the bracket), in front of
		// the brace, and ends behind its last row's comma: it then reads
		// the same first in its array or not.
		if i == 0 {
			e.raw(`,"hours":[`)
		}
		if s.Hours[i].Hour%cutHours == 0 && i+cutHours < len(s.Hours) && e.blocks != nil && e.block(s.Hours[i:i+cutHours]) {
			i += cutHours - 1
			continue
		}
		e.hour(&s.Hours[i])
		if i+1 < len(s.Hours) {
			e.raw(",")
		}
	}
	e.endRows(len(s.Hours))
	if s.Census != nil {
		e.marshaled(`,"census":`, s.Census)
	}
	if s.Late != 0 {
		e.uint(`,"late":`, s.Late)
	}
	for i := range s.Spikes {
		p := &s.Spikes[i]
		e.int(rowKey(i, `,"spikes":[{"hour":`, `,{"hour":`), int64(p.Hour))
		e.time(`,"time":`, p.Time)
		e.float(`,"flows":`, p.Flows)
		e.float(`,"baseline":`, p.Baseline)
		e.float(`,"ratio":`, p.Ratio)
		e.raw("}")
	}
	e.endRows(len(s.Spikes))
	for i := range s.TopPrefixes {
		p := &s.TopPrefixes[i]
		// A prefix prints as digits, hex, '.', ':' and '/' (or as
		// "invalid Prefix"): nothing a JSON string escapes.
		e.raw(rowKey(i, `,"top_prefixes":[{"prefix":"`, `,{"prefix":"`))
		e.b = p.Prefix.AppendTo(e.b)
		e.uint(`","flows":`, p.Flows)
		e.raw("}")
	}
	e.endRows(len(s.TopPrefixes))
	e.districts(s.Districts)
	if s.Located != 0 {
		e.uint(`,"located":`, s.Located)
	}
	if s.Degraded != nil {
		e.marshaled(`,"degraded":`, s.Degraded)
	}
	e.raw("}")
}

func (e *encoder) hour(p *HourPoint) {
	e.int(`{"hour":`, int64(p.Hour))
	e.time(`,"time":`, p.Time)
	e.float(`,"flows":`, p.Flows)
	e.float(`,"bytes":`, p.Bytes)
	e.raw("}")
}

// block appends rows as one closed block: the kept text, or rendered, and
// kept if the key was met before — a block that never recurs (under
// ingest, the live ones) costs no room. It reports false, with nothing
// appended, for rows that do not run hour by hour.
func (e *encoder) block(rows []HourPoint) bool {
	first := rows[0].Time
	sec, loc := first.Unix(), first.Location()
	_, offset := first.Zone()
	// The text holds each row's zone offset: the block may cross one
	// change of it, and with two (in 128 hours) it is no block.
	var change, after int64
	if _, end := first.ZoneBounds(); !end.IsZero() && end.Unix() <= sec+3600*(cutHours-1) {
		if _, next := end.ZoneBounds(); !next.IsZero() && next.Unix() <= sec+3600*(cutHours-1) {
			return false
		}
		_, o := end.Zone()
		change, after = end.Unix(), int64(o)
	}
	key := slices.Grow(e.key[:0], 8*(5+2*cutHours))
	for _, v := range [...]int64{int64(rows[0].Hour), sec, int64(offset), change, after} {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	for i := range rows {
		p := &rows[i]
		if p.Hour != rows[0].Hour+i || p.Time.Unix() != sec+3600*int64(i) || p.Time.Nanosecond() != 0 || p.Time.Location() != loc {
			return false
		}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(p.Flows))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(p.Bytes))
	}
	e.key = key
	at := len(e.b)
	b, met := e.blocks.Find(key)
	if b != nil {
		e.b = append(e.b, b.Text...)
	} else {
		for i := range rows {
			e.hour(&rows[i])
			e.raw(",")
		}
		if met && e.err == nil { // text cut short by an error is not the block's
			b = e.blocks.Keep(key, e.b[at:])
		}
	}
	e.cuts = append(e.cuts, Cut{at, b})
	return true
}

func (e *encoder) districts(rows []DistrictCount) {
	for i := range rows {
		p := &rows[i]
		e.string(rowKey(i, `,"districts":[{"id":`, `,{"id":`), p.ID)
		e.string(`,"name":`, p.Name)
		e.string(`,"state":`, p.StateCode)
		e.uint(`,"flows":`, p.Flows)
		e.raw("}")
	}
	e.endRows(len(rows))
}

// rowKey opens row i of an omitempty array field: the first row carries
// the field name, and an empty array writes nothing at all.
func rowKey(i int, first, next string) string {
	if i == 0 {
		return first
	}
	return next
}

func (e *encoder) endRows(n int) {
	if n > 0 {
		e.raw("]")
	}
}
