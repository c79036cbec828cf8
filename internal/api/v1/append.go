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
// Beside the bytes it reports cuts: the offset of the opening brace of
// every hours row whose hour index is a multiple of cutHours. The text
// between two neighbouring cuts is cutHours rows and their commas, the
// same in every body that spans them wherever its range or array starts,
// so the edge compresses such a block once (api.writeBody).

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// cutHours is the row count of one closed block of the hours array.
const cutHours = 128

// AppendJSON appends the compact JSON encoding of q — what json.Marshal
// returns, byte for byte — to b; cuts are offsets into the result.
func (q *QueryResponse) AppendJSON(b []byte) (out []byte, cuts []int, err error) {
	e := encoder{b: b}
	e.query(q)
	return e.b, e.cuts, e.err
}

// AppendJSON appends the compact JSON encoding of s — what json.Marshal
// returns, byte for byte — to b; cuts are offsets into the result.
func (s *Snapshot) AppendJSON(b []byte) (out []byte, cuts []int, err error) {
	e := encoder{b: b}
	e.snapshot(s)
	return e.b, e.cuts, e.err
}

// encoder appends one body. The first error sticks and is the one
// encoding/json reports for the same value: fields are visited in
// declaration order and none is marshaled after a failure.
type encoder struct {
	b    []byte
	cuts []int
	err  error
	day  dayStamp
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

// string appends s in quotes when nothing in it is escaped under
// json.Encoder's defaults (HTML characters included) — ids, state codes,
// most names.
func (e *encoder) string(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.marshaled(key, s)
			return
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

func (e *encoder) time(key string, t time.Time) {
	if !e.day.covers(t) && !e.day.format(t) {
		e.marshaled(key, t) // not RFC 3339 (year, zone hour): encoding/json's error
		return
	}
	e.raw(key)
	e.b = e.day.append(e.b, t)
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
	if n := len(s.Hours); n >= cutHours {
		e.cuts = make([]int, 0, n/cutHours+1)
	}
	for i := range s.Hours {
		p := &s.Hours[i]
		// The cut sits behind the comma (or the bracket), in front of the
		// brace: a block then reads the same first in its array or not.
		e.raw(rowKey(i, `,"hours":[`, `,`))
		if p.Hour%cutHours == 0 {
			e.cuts = append(e.cuts, len(e.b))
		}
		e.int(`{"hour":`, int64(p.Hour))
		e.time(`,"time":`, p.Time)
		e.float(`,"flows":`, p.Flows)
		e.float(`,"bytes":`, p.Bytes)
		e.raw("}")
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

// dayStamp formats timestamps as time.Time.MarshalJSON does, once per
// day: within one local day of one zone period only the clock digits of
// a whole-second time differ, so the rows that follow a formatted one
// copy its text and patch HH:MM:SS; the first row of the next day, or
// past a zone-offset change, is formatted afresh.
type dayStamp struct {
	loc      *time.Location
	from, to int64 // unix seconds [from, to) the text covers
	midnight int64 // unix second of the text's local 00:00:00
	text     []byte
}

func (d *dayStamp) covers(t time.Time) bool {
	sec := t.Unix()
	return d.from <= sec && sec < d.to && t.Nanosecond() == 0 && t.Location() == d.loc
}

// format makes t the text, covering the rest of its local day, or
// reports false when MarshalJSON would fail.
func (d *dayStamp) format(t time.Time) bool {
	text, err := t.AppendText(append(d.text[:0], '"'))
	if err != nil {
		return false
	}
	d.loc, d.text = t.Location(), append(text, '"')
	_, offset := t.Zone()
	local := t.Unix() + int64(offset)
	d.midnight = local - ((local%86400)+86400)%86400 - int64(offset)
	d.from, d.to = d.midnight, d.midnight+86400
	start, end := t.ZoneBounds()
	if !start.IsZero() && start.Unix() > d.from {
		d.from = start.Unix()
	}
	if !end.IsZero() && end.Unix() < d.to {
		d.to = end.Unix()
	}
	if t.Nanosecond() != 0 {
		d.to = d.from // a fraction changes the text's length: this one time only
	}
	return true
}

// append writes the text with t's clock. The clock starts behind
// `"2006-01-02T`: a year that formats is exactly four digits wide.
func (d *dayStamp) append(b []byte, t time.Time) []byte {
	b = append(b, d.text...)
	c := b[len(b)-len(d.text)+len(`"2006-01-02T`):]
	s := int(t.Unix() - d.midnight)
	c[0], c[1] = byte('0'+s/36000), byte('0'+s/3600%10)
	c[3], c[4] = byte('0'+s/600%6), byte('0'+s/60%10)
	c[6], c[7] = byte('0'+s/10%6), byte('0'+s%10)
	return b
}
