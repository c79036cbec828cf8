package v1

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"
	_ "time/tzdata" // Europe/Berlin wherever the test runs

	"cwatrace/internal/core"
	"cwatrace/internal/geo"
	"cwatrace/internal/sketch"
	"cwatrace/internal/tier"
)

// appender is the two bodies the append encoder renders.
type appender interface {
	AppendJSON([]byte, Blocks) ([]byte, []Cut, error)
}

// keeper is a Blocks over a map of whole keys: exact, unbounded, keeping
// a block from its second sighting on like the edge's own. With collide
// set it files every key under one bucket and answers from whatever sits
// there without looking — a cache that skipped the key comparison.
type keeper struct {
	kept        map[string]*Block
	met         map[string]bool
	finds, hits int
}

func newKeeper() *keeper { return &keeper{kept: map[string]*Block{}, met: map[string]bool{}} }

func (k *keeper) Find(key []byte) (*Block, bool) {
	k.finds++
	b, met := k.kept[string(key)], k.met[string(key)]
	k.met[string(key)] = true
	if b != nil {
		k.hits++
	}
	return b, met
}

func (k *keeper) Keep(key, text []byte) *Block {
	b := &Block{Text: bytes.Clone(text)}
	k.kept[string(key)] = b
	return b
}

// checkAgainstEncoder is the contract of append.go: for any value,
// AppendJSON writes what a json.Encoder writes (less the newline), its
// json.Indent is what an indenting Encoder writes, and a value
// encoding/json refuses is refused with the same words — rendering every
// row, and with somewhere to keep closed blocks: noting them, keeping
// them, and then splicing every one it kept.
func checkAgainstEncoder(t *testing.T, v appender) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(v)
	got, cuts, gotErr := v.AppendJSON(nil, nil)
	if len(cuts) != 0 {
		t.Fatalf("%d cuts with nowhere to keep a block", len(cuts))
	}
	blocks := newKeeper()
	for sighting := 1; sighting <= 3; sighting++ {
		hits := blocks.hits
		again, cuts, err := v.AppendJSON([]byte("prefix"), blocks)
		if (err == nil) != (gotErr == nil) || err != nil && err.Error() != gotErr.Error() {
			t.Fatalf("sighting %d: error %v, without blocks %v", sighting, err, gotErr)
		}
		if err != nil {
			continue
		}
		// Appending extends the caller's bytes and leaves them alone.
		if !bytes.Equal(again, append([]byte("prefix"), got...)) {
			t.Fatalf("sighting %d: body differs from the one rendered row by row:\n%s\n%s", sighting, again, got)
		}
		kept := checkCuts(t, again, cuts)
		if spliced := blocks.hits - hits; sighting == 1 && len(kept)+spliced != 0 || sighting > 1 && len(kept) != len(cuts) || sighting == 3 && spliced != len(cuts) {
			t.Fatalf("sighting %d: %d cuts, %d kept, %d spliced", sighting, len(cuts), len(kept), spliced)
		}
	}
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("errors differ:\n json: %v\n ours: %v", wantErr, gotErr)
		}
		return
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("bodies differ:\n json: %s\n ours: %s", want.Bytes(), got)
	}
	var wantPretty, gotPretty bytes.Buffer
	enc := json.NewEncoder(&wantPretty)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&gotPretty, got, "", "  "); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPretty.Bytes(), wantPretty.Bytes()) {
		t.Fatalf("indented bodies differ:\n json: %s\n ours: %s", wantPretty.Bytes(), gotPretty.Bytes())
	}
}

// checkCuts is the contract of the cuts: in order and apart, each kept
// one the text of its block where the body has it — cutHours rows that
// open on a multiple of cutHours, every one with its comma. It returns
// the kept ones.
func checkCuts(t *testing.T, body []byte, cuts []Cut) (kept []Cut) {
	t.Helper()
	end := 0
	for i, c := range cuts {
		if c.Off < end {
			t.Fatalf("cut %d at %d, the last one at or behind it", i, c.Off)
		}
		if end = c.Off + 1; c.Block == nil {
			continue
		}
		kept = append(kept, c)
		text := c.Block.Text
		if c.Off+len(text) > len(body) || !bytes.Equal(body[c.Off:c.Off+len(text)], text) {
			t.Fatalf("cut %d at %d: %d bytes that are not the body's (last cut ended at %d)", i, c.Off, len(text), end)
		}
		end = c.Off + len(text)
		var hour int
		if _, err := fmt.Sscanf(string(text), `{"hour":%d,`, &hour); err != nil || hour%cutHours != 0 {
			t.Fatalf("cut %d opens on %.30s (%v)", i, text, err)
		}
		if rows := bytes.Count(text, []byte("},")); rows != cutHours || !bytes.HasSuffix(text, []byte("},")) {
			t.Fatalf("cut %d holds %d rows and ends %q", i, rows, text[len(text)-10:])
		}
	}
	return kept
}

func berlin(t testing.TB) *time.Location {
	loc, err := time.LoadLocation("Europe/Berlin")
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

// hourly is an hourly series of n points from origin on, the shape every
// store answer has.
func hourly(origin time.Time, n int) []HourPoint {
	hours := make([]HourPoint, n)
	for i := range hours {
		hours[i] = HourPoint{Hour: i, Time: origin.Add(time.Duration(i) * time.Hour), Flows: float64(3 * i), Bytes: float64(i) * 1500.5}
	}
	return hours
}

// TestBlocksReadTheSameEverywhere is what the blocks are for: the rows
// of hours 128-255 are one block, kept once, whether the array starts
// before the block, on it, or in another body type — and a block with no
// row behind it, whose array may end there, is none.
func TestBlocksReadTheSameEverywhere(t *testing.T) {
	hours := hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, berlin(t)), 400)
	blocks := newKeeper()
	var want *Block
	for pass := 1; pass <= 3; pass++ { // noted, kept, spliced
		for start, v := range map[int]appender{
			0:   &Snapshot{Hours: hours, Late: 7},
			100: &QueryResponse{Frames: 3, Snapshot: &Snapshot{SeriesStart: 100, Hours: hours[100:]}},
			128: &Snapshot{SeriesStart: 128, Hours: hours[128:384]},
		} {
			body, cuts, err := v.AppendJSON([]byte("some prefix"), blocks)
			if err != nil {
				t.Fatal(err)
			}
			var opens []string
			for _, c := range checkCuts(t, body, cuts) {
				opens = append(opens, string(c.Block.Text[:bytes.IndexByte(c.Block.Text, ',')]))
				if bytes.HasPrefix(c.Block.Text, []byte(`{"hour":128,`)) {
					if want == nil {
						want = c.Block
					} else if c.Block != want {
						t.Fatalf("start %d: the block of hours 128-255 was kept twice", start)
					}
				}
			}
			wantOpens := map[int]string{0: `[{"hour":0 {"hour":128 {"hour":256]`, 100: `[{"hour":128 {"hour":256]`, 128: `[{"hour":128]`}[start]
			if got := fmt.Sprint(opens); pass == 3 && got != wantOpens {
				t.Fatalf("pass %d, start %d: blocks %s, want %s", pass, start, got, wantOpens)
			}
		}
	}
	if blocks.hits == 0 || len(blocks.kept) != 3 {
		t.Fatalf("%d blocks kept, %d spliced", len(blocks.kept), blocks.hits)
	}
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	loc := berlin(t)
	snap := NewSnapshot(sampleSnapshot(t), AllFields, 0)
	full := &QueryResponse{
		From:         time.Date(2020, 6, 15, 0, 0, 0, 0, time.UTC),
		Frames:       3,
		TailIncluded: true,
		Snapshot:     snap,
		Resolution:   "day",
		LongHorizon: &LongHorizon{
			Resolution: tier.ResolutionDay, Approximate: true, BucketHours: 24,
			Buckets: []tier.Bucket{
				{StartHour: 0, Time: time.Date(2020, 6, 15, 0, 0, 0, 0, loc), Flows: 12, Bytes: 1e21},
				{StartHour: 24, Flows: 0.25, Bytes: 1e-7},
			},
			Census:    core.Census{Total: 5, Kept: 3, Dropped: map[core.DropReason]int{core.DropNotTCP: 2}},
			Districts: []DistrictCount{{ID: "05315", Name: "Köln <&>", StateCode: "NW", Flows: 9}},
			Presence:  sketch.Summary{Count: 4, P50: 1, P90: 2, P99: 3, Max: 3},

			PrefixSketch: []byte{0, 1, 2, 250}, PresenceSketch: []byte{7},
		},
		Degraded: &Degraded{MissingShards: []int{1}, Nodes: []string{"b:1"}, Detail: "down", RequestID: "r"},
	}
	cases := map[string]appender{
		"full query":       full,
		"snapshot":         snap,
		"nil query":        (*QueryResponse)(nil),
		"nil snapshot":     (*Snapshot)(nil),
		"empty query":      &QueryResponse{},
		"empty snapshot":   &Snapshot{},
		"empty horizon":    &QueryResponse{LongHorizon: &LongHorizon{}},
		"partial snapshot": &Snapshot{Late: 3, Located: 4, Degraded: &Degraded{MissingShards: []int{0}}},
		"empty not nil":    &Snapshot{Hours: []HourPoint{}, Spikes: []Spike{}, TopPrefixes: []PrefixCount{}, Districts: []DistrictCount{}, Census: &Census{}},
		"autumn in Berlin": &Snapshot{Origin: time.Date(2020, 10, 24, 0, 0, 0, 0, loc), Hours: hourly(time.Date(2020, 10, 24, 0, 0, 0, 0, loc), 72)},
		"spring in Berlin": &Snapshot{Origin: time.Date(2021, 3, 27, 0, 0, 0, 0, loc), Hours: hourly(time.Date(2021, 3, 27, 0, 0, 0, 0, loc), 72)},
		"three blocks":     &Snapshot{SeriesStart: 100, Hours: hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, loc), 400)[100:]},
		"on a boundary":    &QueryResponse{Snapshot: &Snapshot{SeriesStart: 256, Hours: hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, loc), 300)[256:]}},
		"half-hour zone":   &Snapshot{Hours: hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, time.FixedZone("", 5*3600+1800)), 30)},
		"odd-second zone":  &Snapshot{Hours: hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, time.FixedZone("", -(53*60+28))), 30)},
		"before 1970":      &Snapshot{Hours: hourly(time.Date(1969, 12, 30, 22, 0, 0, 0, loc), 60)},
		"fractions":        &Snapshot{Hours: hourly(time.Date(2020, 6, 15, 0, 0, 0, 5e8, time.UTC), 5), Spikes: []Spike{{Hour: 1, Time: time.Unix(1592179200, 1), Flows: 1e6, Baseline: 1.0 / 3, Ratio: 3e6}}},
		"mixed locations":  &Snapshot{Hours: append(hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, time.UTC), 3), hourly(time.Date(2020, 6, 15, 0, 0, 0, 0, loc), 3)...)},
		"year 10000":       &Snapshot{Hours: hourly(time.Date(9999, 12, 31, 20, 0, 0, 0, time.UTC), 8)},
		"year -1":          &QueryResponse{To: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone hour 24":     &Snapshot{Origin: time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		"NaN":              &Snapshot{Hours: []HourPoint{{Flows: math.NaN()}}},
		"-Inf bucket":      &QueryResponse{LongHorizon: &LongHorizon{Buckets: []tier.Bucket{{Bytes: math.Inf(-1)}}}},
		"first error wins": &Snapshot{Hours: []HourPoint{{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Flows: math.NaN()}}},
		"floats": &Snapshot{Hours: []HourPoint{
			{Flows: math.Copysign(0, -1), Bytes: 1 << 53}, {Flows: -(1 << 53), Bytes: 1<<53 + 2},
			{Flows: 1e20, Bytes: 1e21}, {Flows: 1e-6, Bytes: 9.9e-7}, {Flows: -1e-9, Bytes: math.MaxFloat64},
			{Flows: math.SmallestNonzeroFloat64, Bytes: -123456.75},
		}},
		"strings": &Snapshot{Districts: []DistrictCount{
			{ID: "<script>&\"\\", Name: "a\u2028b\u2029c", StateCode: "\xff\xfe tail \xc3"},
			{ID: "\x00\x01\b\f\n\r\t\x1f\x7f", Name: "Łódź 東京 🚀"},
		}},
		"model districts":   &QueryResponse{Snapshot: &Snapshot{Districts: modelDistricts()}, LongHorizon: &LongHorizon{Districts: modelDistricts()}},
		"one escape a name": &Snapshot{Districts: oneEscapeANames()},
		"prefixes": &Snapshot{TopPrefixes: []PrefixCount{
			{}, {Prefix: netip.MustParsePrefix("100.64.3.0/24"), Flows: math.MaxUint64},
			{Prefix: netip.MustParsePrefix("2001:db8::/32")}, {Prefix: netip.MustParsePrefix("::ffff:10.1.2.0/120")},
			{Prefix: netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 99)},
		}},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstEncoder(t, v) })
	}
}

// modelDistricts is a rollup of every district geo.Germany() places, 68
// of its 401 names with an umlaut or ß in them.
func modelDistricts() []DistrictCount {
	var rows []DistrictCount
	for i, d := range geo.Germany().Districts() {
		rows = append(rows, DistrictCount{ID: d.ID, Name: d.Name, StateCode: d.StateCode, Flows: uint64(i)})
	}
	return rows
}

// oneEscapeANames are names that encoding/json escapes, each for one
// reason beside an umlaut, and names it copies although they are close.
func oneEscapeANames() []DistrictCount {
	var rows []DistrictCount
	for _, name := range []string{
		"Köln\u2028", "\u2029Düren", "Bad Tölz \xff", "Lörrach \xc3", "\xed\xa0\x80 Hürth", "Jülich \xef\xbf",
		"Mülheim <a>", "Grün & Weiß", "Straße \"1\"", "Görlitz \\", "Fürth\t", "Zürich\x7f",
		"Öhringen \uFFFD", "Ærø ✓ 🚀", "Łódź",
	} {
		rows = append(rows, DistrictCount{ID: name, Name: name, StateCode: name})
	}
	return rows
}

// TestModelNamesAppendWithoutAllocating is the point of the UTF-8 path:
// a day or week answer lists every district twice, and a name with an
// umlaut costs no trip through encoding/json.
func TestModelNamesAppendWithoutAllocating(t *testing.T) {
	rows := modelDistricts()
	e := encoder{b: make([]byte, 0, 64<<10)}
	if n := testing.AllocsPerRun(20, func() {
		e.b = e.b[:0]
		e.districts(rows)
	}); n != 0 || e.err != nil {
		t.Fatalf("appending %d model districts allocates %v times (%v), want 0", len(rows), n, e.err)
	}
}

// feed deals a fuzz input out as the scalars of a response; an exhausted
// input deals zeros.
type feed struct {
	data []byte
	locs []*time.Location
}

func (f *feed) take(n int) []byte {
	b := make([]byte, n)
	f.data = f.data[copy(b, f.data):]
	return b
}

func (f *feed) byte() byte     { return f.take(1)[0] }
func (f *feed) u64() uint64    { return binary.LittleEndian.Uint64(f.take(8)) }
func (f *feed) n(max int) int  { return int(f.byte()) % (max + 1) }
func (f *feed) str() string    { return string(f.take(f.n(12))) }
func (f *feed) bytes() []byte  { return f.take(f.n(40)) }
func (f *feed) small() int     { return int(int16(binary.LittleEndian.Uint16(f.take(2)))) }
func (f *feed) flag() bool     { return f.byte()&1 == 1 }
func (f *feed) count() uint64  { return f.u64() >> (f.byte() % 64) }
func (f *feed) reason() uint64 { return uint64(f.n(int(core.DropUpstream))) }

// float deals arbitrary bits half the time and a count the other half.
func (f *feed) float() float64 {
	if f.flag() {
		return math.Float64frombits(f.u64())
	}
	return float64(f.count() >> 11)
}

// time deals a zero time, any representable second in any zone, or a
// time near one of the two Berlin offset changes of the study year.
func (f *feed) time() time.Time {
	loc := f.locs[f.n(len(f.locs)-1)]
	switch f.n(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(int64(f.u64())>>(f.byte()%40), int64(f.n(1))*int64(f.small())).In(loc)
	case 2:
		return time.Date(2020, 10, 25, 0, 0, 0, 0, time.UTC).Add(time.Duration(f.small()) * time.Minute).In(loc)
	case 3:
		return time.Date(2021, 3, 28, 0, 0, 0, 0, time.UTC).Add(time.Duration(f.small()) * time.Second).In(loc)
	}
	return time.Date(2020, 6, 15, 0, 0, 0, 0, loc)
}

func (f *feed) prefix() netip.Prefix {
	var a netip.Addr
	if f.flag() {
		a = netip.AddrFrom4([4]byte(f.take(4)))
	} else {
		a = netip.AddrFrom16([16]byte(f.take(16)))
	}
	p := netip.PrefixFrom(a, f.n(130)-1)
	if f.flag() {
		p = p.Masked()
	}
	return p
}

func (f *feed) districts() []DistrictCount {
	var rows []DistrictCount
	for i := f.n(3); i > 0; i-- {
		rows = append(rows, DistrictCount{ID: f.str(), Name: f.str(), StateCode: f.str(), Flows: f.count()})
	}
	return rows
}

func (f *feed) census() Census {
	c := Census{Total: f.small(), Kept: f.small()}
	for i := f.n(3); i > 0; i-- {
		if c.Dropped == nil {
			c.Dropped = map[core.DropReason]int{}
		}
		c.Dropped[core.DropReason(f.reason())] = f.small()
	}
	return c
}

func (f *feed) degraded() *Degraded {
	if f.flag() {
		return nil
	}
	d := &Degraded{Detail: f.str(), RequestID: f.str()}
	for i := f.n(2); i > 0; i-- {
		d.MissingShards = append(d.MissingShards, f.small())
		d.Nodes = append(d.Nodes, f.str())
	}
	return d
}

// series deals either unrelated points or an hourly run from one origin —
// the run is what walks the per-day timestamp text across midnights and
// offset changes.
func (f *feed) series() []HourPoint {
	var hours []HourPoint
	origin, run := f.time(), f.flag()
	for i := f.n(60); i > 0; i-- {
		p := HourPoint{Hour: f.small(), Time: f.time(), Flows: f.float(), Bytes: f.float()}
		if run {
			p.Time = origin.Add(time.Duration(len(hours)) * time.Hour)
		}
		hours = append(hours, p)
	}
	if !run || !f.flag() {
		return hours
	}
	// The shape every store answer has, long enough to close blocks: the
	// run goes on hour by hour from somewhere short of a block's start,
	// but for the odd row that breaks it.
	first := f.small() - f.small()%cutHours - f.n(3)
	odd, flat := f.n(255), f.flag()
	for i, n := 0, cutHours+f.n(2*cutHours); i < n; i++ {
		p := HourPoint{Hour: first + i, Time: origin.Add(time.Duration(len(hours)) * time.Hour), Flows: float64(i % 7), Bytes: float64(i)}
		if !flat {
			p.Flows, p.Bytes = f.float(), f.float()
		}
		if i == odd {
			p.Hour += f.n(1)
			p.Time = p.Time.Add(time.Duration(f.n(1)) * time.Nanosecond).In(f.locs[f.n(len(f.locs)-1)])
		}
		hours = append(hours, p)
	}
	return hours
}

func (f *feed) snapshot() *Snapshot {
	if f.n(7) == 0 {
		return nil
	}
	s := &Snapshot{Origin: f.time(), WindowHours: f.small(), SeriesStart: f.small(), Hours: f.series(),
		Late: f.count(), Located: f.count(), Districts: f.districts(), Degraded: f.degraded()}
	if f.flag() {
		c := f.census()
		s.Census = &c
	}
	for i := f.n(3); i > 0; i-- {
		s.Spikes = append(s.Spikes, Spike{Hour: f.small(), Time: f.time(), Flows: f.float(), Baseline: f.float(), Ratio: f.float()})
	}
	for i := f.n(3); i > 0; i-- {
		s.TopPrefixes = append(s.TopPrefixes, PrefixCount{Prefix: f.prefix(), Flows: f.count()})
	}
	return s
}

func (f *feed) query() *QueryResponse {
	q := &QueryResponse{From: f.time(), To: f.time(), Frames: f.small(), TailIncluded: f.flag(),
		Snapshot: f.snapshot(), Resolution: f.str(), Degraded: f.degraded()}
	if f.flag() {
		return q
	}
	a := &LongHorizon{Resolution: tier.Resolution(f.str()), Approximate: f.flag(), BucketHours: f.small(),
		TierFrames: f.small(), RawFrames: f.small(), Census: f.census(), Late: f.count(), Located: f.count(),
		Districts: f.districts(), DistinctPrefixes: f.count(),
		Presence:     sketch.Summary{Count: f.count(), P50: f.count(), P90: f.count(), P99: f.count(), Max: f.count()},
		PrefixSketch: f.bytes(), PresenceSketch: f.bytes()}
	origin := f.time()
	for i := f.n(20); i > 0; i-- {
		b := tier.Bucket{StartHour: int64(f.small()), Flows: f.float(), Bytes: f.float()}
		if f.flag() {
			b.Time = origin.Add(time.Duration(b.StartHour) * time.Hour)
		}
		a.Buckets = append(a.Buckets, b)
	}
	q.LongHorizon = a
	return q
}

// FuzzAppendJSON holds the append encoder to encoding/json over
// responses built from the fuzz input: arbitrary float bits, strings of
// arbitrary bytes, zero and out-of-range times, hourly runs in
// Europe/Berlin and in odd fixed zones — some long enough to close
// blocks, which are then also spliced from kept text — empty and absent
// sections.
func FuzzAppendJSON(f *testing.F) {
	locs := []*time.Location{time.UTC, berlin(f), time.FixedZone("", 5*3600+1800), time.FixedZone("", -(53*60 + 28)), time.FixedZone("", 24*3600)}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 600))
	f.Add(bytes.Repeat([]byte{0xff, 0x3c, 0xe2, 0x80, 0xa8, 2, 3}, 200))
	f.Add(bytes.Repeat([]byte{2, 1, 0x7f, 0xf0, 3, 1, 0x26}, 300))
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 1, 4, 1, 0, 1, 0, 1, 0, 0, 2, 255, 1, 200, 0, 0, 1}) // 328 rows from hour 254 on: two closed blocks
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &feed{data: data, locs: locs}
		if in.flag() {
			checkAgainstEncoder(t, in.query())
		} else {
			checkAgainstEncoder(t, in.snapshot())
		}
	})
}
