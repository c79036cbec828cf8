// Package streaming computes the paper's analyses online, over a live
// record stream, instead of in batch over a finished trace. It is the
// analytics half of the live ingest subsystem (internal/ingest is the
// transport half): hourly buckets carry the Figure-2 flow/byte series, a
// per-prefix counter tracks the most active client networks, district
// rollups reproduce the Figure-3 geography, and a trailing-baseline
// detector flags launch/attention spikes like the June-16 release jump.
//
// An Analytics value is one single-goroutine shard: the durable store
// (internal/store) ingests into its one tail and folds everything else it
// holds as immutable states (Stored, Fold). Every aggregate is a commutative sum (flow counts and
// byte totals are integer-valued, so float64 accumulation is exact and
// order-free), so states fold (Merge, Fold) to the same bytes in any
// grouping — the property the end-to-end loopback test pins against the
// batch internal/core results at any worker count.
package streaming

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"cwatrace/internal/adoption"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/stats"
)

// nReasons sizes the per-shard drop census array.
const nReasons = int(core.DropUpstream) + 1

// ClientPrefixBits is the client aggregation prefix length: the /24 the
// geolocation database keys its districts by (geodb.DB.Locate), so a
// prefix row locates once, for every record it counts.
const ClientPrefixBits = 24

// The spike detector's parameters: an hour is a spike when it holds at
// least SpikeMinFlows flows and SpikeFactor times the mean of the
// SpikeHistory hours before it.
const (
	SpikeFactor   = 3
	SpikeHistory  = 24
	SpikeMinFlows = 10
)

// spikeParams is one set of the detector's parameters.
type spikeParams struct {
	factor, minFlows float64
	history          int
}

// Config parameterizes one analytics shard. The zero value is usable:
// defaults reproduce the paper's study window; every shard applies
// core.DefaultFilter and the spike constants above.
type Config struct {
	// Origin anchors hour bucket 0 (default entime.StudyStart). Records
	// before Origin, or MaxWindowHours or more hours past it, count as
	// Late and are otherwise ignored.
	Origin time.Time
	// WindowHours is the live view's length in hourly buckets: a Snapshot
	// renders the WindowHours hours up to the newest bin (default
	// entime.StudyHours(), i.e. the whole study window). A shard keeps
	// every hour it bins, whatever the window.
	WindowHours int
	// TopK bounds the active-prefix leaderboard in snapshots (default 10).
	TopK int
	// Deprecated: ignored. Every shard keeps every hour it bins.
	Archive bool
	// DB and Model enable per-district rollups; both nil disables them.
	// A rendering names the districts only where Model is set. Every
	// model is geo.Germany(), whose order the district id space is.
	DB    *geodb.DB
	Model *geo.Model
	// spike, zero for the constants, is set by tests for short histories.
	spike spikeParams
}

// WithDefaults returns the configuration with every zero field filled in,
// exactly as New would resolve it. The durable store uses it to persist
// and validate the resolved analytics parameters across restarts.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Origin.IsZero() {
		c.Origin = entime.StudyStart
	}
	if c.WindowHours <= 0 {
		c.WindowHours = entime.StudyHours()
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.spike == (spikeParams{}) {
		c.spike = spikeParams{SpikeFactor, SpikeHistory, SpikeMinFlows}
	}
	return c
}

// hourBin is one populated hourly bucket in canonical (row) form: the unit
// a shard's series hands out (series.bins), the fold (MergeStored) and the
// state codec exchange.
type hourBin struct {
	hour  int
	flows float64
	bytes float64
}

// Analytics is one online-analytics shard. It is not safe for concurrent
// use; the durable store guards each of its shards with its own locking.
//
// The hot-path state is flat arrays: the hourly series is three columns
// over the hours it spans (see series), the prefix counters a count array
// keyed by interned indexes, with the maps reduced to prefix → index
// lookups, and the district counters are indexed by the one district id space. A
// per-record update is then a handful of array writes; the only map the steady state touches is the int-keyed
// prefix fast index, whose lookups need no hashing of 32-byte netip.Prefix
// values and whose hits never call mapassign. The district rollup adds no
// map: a record's district is a function of its /24, so the prefix row
// carries it (the DB is asked once per row).
type Analytics struct {
	cfg     Config
	cfilter core.CompiledFilter

	// originSec enables the integer-seconds hour binning fast path; it is
	// only valid when originWhole is set (Origin has no sub-second part —
	// otherwise second-truncated math would disagree with Sub/time.Hour
	// and the slow path runs).
	originSec   int64
	originWhole bool

	// The hourly series and its newest hour (-1 before any record).
	hours   series
	maxHour int
	// window is the window the shard's state encodes: cfg.WindowHours
	// while the span of its bins fits, else that span rounded up (see bin).
	window int

	// newestNano is the freshness watermark: the newest First timestamp
	// (UnixNano) of any record binned into this shard. In-memory only —
	// it is intentionally NOT serialized (frame byte-compatibility) and
	// a restored shard starts cold, exactly like its bins' recency must
	// be re-proven by live traffic.
	newestNano int64

	// The drop census, the interned prefix counters and the district ones.
	counters
	// lastPrefKey/lastPrefIdx memoize the most recent fast-index hit:
	// client records cluster by network, so runs of records share a
	// prefix and skip even the int-keyed map probe. Indexes are
	// append-only, so a memoized entry never goes stale.
	lastPrefKey uint32
	lastPrefIdx uint32
	lastPrefOK  bool
	// rowDistrict is each prefix row's district: 0 unresolved (rows a merge
	// interned, or past its end), -1 not placed by the DB, else 1 + its
	// district index. A row's first record resolves it.
	rowDistrict []int32
	// ids is each prefix row's id in table, given when the row is created;
	// both are nil until Intern.
	table *PrefixTable
	ids   []uint32
}

// New creates an empty shard.
func New(cfg Config) *Analytics {
	cfg = cfg.withDefaults()
	a := &Analytics{
		cfg:      cfg,
		cfilter:  core.DefaultFilter().Compile(),
		hours:    series{first: math.MaxInt},
		maxHour:  -1,
		window:   cfg.WindowHours,
		counters: newCounters(),
	}
	if cfg.Origin.Nanosecond() == 0 {
		a.originSec = cfg.Origin.Unix()
		a.originWhole = true
	}
	a.hasDistricts = cfg.DB != nil && cfg.Model != nil
	return a
}

// Config returns the shard's resolved configuration. For a shard
// restored with UnmarshalAnalyticsStored, WindowHours is the window the
// state was captured at.
func (a *Analytics) Config() Config { return a.cfg }

// Ingest runs one record batch through the filter and into every live
// aggregate. The batch is not retained.
func (a *Analytics) Ingest(recs []netflow.Record) {
	for i := range recs {
		a.ingest(&recs[i])
	}
}

func (a *Analytics) ingest(r *netflow.Record) {
	reason := a.cfilter.Classify(r)
	a.dropped[reason]++
	if reason != core.Kept {
		return
	}

	// Hourly series. The bucket index is hours since Origin. The
	// explicit before-Origin check matters: negative sub-hour durations
	// would truncate to bucket 0 otherwise. For whole-second Origins the
	// binning runs on integer seconds — Unix() floors toward -inf, so
	// sec < originSec is exactly First.Before(Origin), and for the
	// non-negative remainder the sub-second part can never push the
	// division across an hour boundary.
	var h int
	if a.originWhole {
		sec := r.First.Unix()
		if sec < a.originSec {
			a.late++
			return
		}
		h = int((sec - a.originSec) / 3600)
	} else {
		if r.First.Before(a.cfg.Origin) {
			a.late++
			return
		}
		h = int(r.First.Sub(a.cfg.Origin) / time.Hour)
	}
	// Most records land in an hour that is a bin already: at finds it
	// inline, without bin's call.
	i := a.hours.at(h)
	if i < 0 {
		if i = a.bin(h); i < 0 {
			a.late++
			return
		}
	}
	a.hours.flows[i]++
	a.hours.bytes[i] += float64(r.Bytes)
	if n := r.First.UnixNano(); n > a.newestNano {
		a.newestNano = n
	}

	// Top-K active client prefixes. Kept records are CDN-to-user, so the
	// client is the destination — and always IPv4 (the filter drops the
	// rest), so the masked-word fast index covers the whole kept stream.
	b := r.Dst.As4()
	key := binary.BigEndian.Uint32(b[:]) &^ (1<<(32-ClientPrefixBits) - 1)
	row := a.lastPrefIdx
	if !a.lastPrefOK || key != a.lastPrefKey {
		var ok bool
		if row, ok = a.prefix4Idx[key]; !ok {
			row = a.internPrefix(netip.PrefixFrom(r.Dst, ClientPrefixBits).Masked())
		}
		a.lastPrefKey, a.lastPrefIdx, a.lastPrefOK = key, row, true
	}
	a.prefixCount[row]++

	// Per-district rollup, off the row. A shard can hold district counts
	// without a DB (restored checkpoint state merged into a sidecar-less
	// reader); it keeps the counts but cannot locate new records.
	if a.hasDistricts && a.cfg.DB != nil {
		if n := int(row) + 1; n > len(a.rowDistrict) {
			a.rowDistrict = append(a.rowDistrict, make([]int32, n-len(a.rowDistrict))...)
		}
		d := a.rowDistrict[row]
		if d == 0 {
			d = -1
			if entry, ok := a.cfg.DB.Locate(r.Dst); ok {
				d = int32(a.districts.Add(NoDistrict, entry.DistrictID, 0)) + 1
			}
			a.rowDistrict[row] = d
		}
		if d > 0 {
			a.located++
			a.districts.flows[d-1]++
		}
	}
}

// internPrefix is counters.internPrefix that gives a row it creates its id
// in the shard's prefix table: once per row, never per record.
func (a *Analytics) internPrefix(p netip.Prefix) uint32 {
	row := a.counters.internPrefix(p)
	if a.table != nil && int(row) == len(a.ids) {
		a.ids = a.table.internAll(a.ids, p)
	}
	return row
}

// Intern gives every prefix row of the shard an id in t, now and as rows
// are created, so its states (Detach) come resolved against t.
func (a *Analytics) Intern(t *PrefixTable) {
	a.table, a.ids = t, t.internAll(make([]uint32, 0, len(a.prefixList)), a.prefixList...)
}

// bin returns hour h's index in the series, claimed, or -1 when h counts
// late: an hour before Origin's, or one at or past MaxWindowHours — a
// forged timestamp or garbage exporter clock must not widen the window
// past what reads accept back. Nothing is ever dropped: the window the
// state encodes widens to the span instead. Every hour enters a shard
// here: Ingest's records, and the bins of MergeStored, Merge,
// UnmarshalAnalyticsStored and FromSnapshot (addBin), so a shard holds no
// hour a read would refuse.
func (a *Analytics) bin(h int) int {
	if h < 0 || h >= MaxWindowHours {
		return -1
	}
	// The window a state encodes: cfg.WindowHours while its span fits,
	// else the span rounded up, a function of the span alone.
	if span := max(a.maxHour, h) - min(a.hours.first, h) + 1; span > a.window {
		a.window = (span + windowQuantum - 1) / windowQuantum * windowQuantum
	}
	a.maxHour = max(a.maxHour, h)
	return a.hours.claim(h)
}

// addBin adds a bin's counts to its hour, or its flows to late when bin
// refuses the hour.
func (a *Analytics) addBin(h int, flows, bytes float64) {
	if i := a.bin(h); i >= 0 {
		a.hours.add(i, flows, bytes)
	} else {
		a.late += uint64(flows)
	}
}

// windowQuantum rounds a shard's window up, so the window a state
// encodes moves once per 64 hours of span, not with every new hour. It is
// a function of the final span alone, so marshaled state stays
// deterministic across arrival orders.
const windowQuantum = 64

// Watermark returns the newest record start timestamp binned into this
// shard (the freshness watermark), or the zero time before any.
func (a *Analytics) Watermark() time.Time {
	if a.newestNano == 0 {
		return time.Time{}
	}
	return time.Unix(0, a.newestNano)
}

// Snapshot reports this shard's aggregates alone: the live view, the
// cfg.WindowHours hours up to its newest bin, rendered by Range.Snapshot
// from the shard's own series and counters — what FoldWindow of its state
// renders, without the fold. The hours share the series unless the
// window starts before it.
func (a *Analytics) Snapshot() *Snapshot {
	return (&Range{cfg: a.cfg, counters: a.counters, hours: a.hours.last(a.cfg.WindowHours)}).Snapshot()
}

// Bounds reports the populated hour coverage of the shard as inclusive
// hour indices relative to Origin: the oldest bin and the newest hour.
// ok is false when no kept record has been binned yet. The
// durable store records the bounds as checkpoint-frame metadata for
// time-range frame selection, and consults the live tails' bounds on
// every ETag derivation (store.Version), under its append mutex: both
// ends are tracked, so it is O(1).
func (a *Analytics) Bounds() (minHour, maxHour int, ok bool) {
	if len(a.hours.set) == 0 {
		return 0, 0, false
	}
	return a.hours.first, a.maxHour, true
}

// clipHours returns the inclusive range of hour indexes h with
// from <= origin+h·hour < to, i.e. ceil(from-origin) <= h < ceil(to-origin)
// in whole hours; a zero bound is open.
func clipHours(origin time.Time, from, to time.Time) (lo, hi int) {
	lo, hi = 0, math.MaxInt
	if !from.IsZero() {
		lo = max(lo, ceilHours(from.Sub(origin)))
	}
	if !to.IsZero() {
		hi = ceilHours(to.Sub(origin)) - 1
	}
	return lo, hi
}

// ceilHours rounds d up to whole hours. Division truncates toward zero,
// which already is the ceiling of a negative duration.
func ceilHours(d time.Duration) int {
	h := d / time.Hour
	if d%time.Hour > 0 {
		h++
	}
	return int(h)
}

// detectSpikes scans the populated window with a trailing-mean baseline.
// It runs on merged, deterministic bins, so spike output is independent of
// worker count and arrival order.
//
// The baseline of hour i is the sum of the SpikeHistory hours before it,
// added oldest first — for an hour that clears the SpikeMinFlows floor,
// and then usually not added at all: a running sum follows the window's
// plain values (whole, and so small that SpikeHistory of them stay below
// 2^53, where any order of adding is exact) and counts the others; only
// a window holding one of those is added up the long way.
func detectSpikes(hours []HourPoint, cfg Config) []Spike {
	n := cfg.spike.history
	if n <= 0 {
		return nil // no history, no baseline: NaN or -0, never a spike
	}
	limit := float64(1<<53) / float64(n)
	plain := func(v float64) bool { return math.Abs(v) < limit && v == math.Trunc(v) }
	var (
		out     []Spike
		running float64 // sum of the window's plain values
		others  int     // how many of the window's values are not plain
	)
	baseline := func(i int) float64 {
		sum := running
		if others > 0 {
			sum = 0
			for j := i - n; j < i; j++ {
				sum += hours[j].Flows
			}
		}
		return sum / float64(n)
	}
	for i := range hours {
		// Not ">=": a NaN on either side passes the floor, as it always has.
		if i >= n && !(hours[i].Flows < cfg.spike.minFlows) {
			if b := baseline(i); b > 0 && hours[i].Flows/b >= cfg.spike.factor {
				out = append(out, Spike{
					Hour:     hours[i].Hour,
					Time:     hours[i].Time,
					Flows:    hours[i].Flows,
					Baseline: b,
					Ratio:    hours[i].Flows / b,
				})
			}
		}
		if i >= n {
			if v := hours[i-n].Flows; plain(v) {
				running -= v
			} else {
				others--
			}
		}
		if v := hours[i].Flows; plain(v) {
			running += v
		} else {
			others++
		}
	}
	return out
}

// lessPrefix is the canonical prefix order (address, then length) of the
// state codec and of leaderboard ties.
func lessPrefix(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
}

// HourPoint is one bucket of the hourly series.
type HourPoint struct {
	Hour  int       `json:"hour"`
	Time  time.Time `json:"time"`
	Flows float64   `json:"flows"`
	Bytes float64   `json:"bytes"`
}

// Spike is one hour flagged by the launch/attention detector.
type Spike struct {
	Hour     int       `json:"hour"`
	Time     time.Time `json:"time"`
	Flows    float64   `json:"flows"`
	Baseline float64   `json:"baseline"`
	Ratio    float64   `json:"ratio"`
}

// PrefixCount is one row of the active-prefix leaderboard.
type PrefixCount struct {
	Prefix netip.Prefix `json:"prefix"`
	Flows  uint64       `json:"flows"`
}

// DistrictCount is one row of the per-district rollup.
type DistrictCount struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	StateCode string `json:"state"`
	Flows     uint64 `json:"flows"`
}

// Snapshot is a consistent view of the merged aggregates, shaped for
// collectord's /api/v1/snapshot endpoint and for comparison against
// internal/core.
type Snapshot struct {
	Origin      time.Time `json:"origin"`
	WindowHours int       `json:"window_hours"`
	// SeriesStart is the hour index of Hours[0] relative to Origin.
	SeriesStart int             `json:"series_start"`
	Hours       []HourPoint     `json:"hours"`
	Census      core.Census     `json:"census"`
	Spikes      []Spike         `json:"spikes"`
	TopPrefixes []PrefixCount   `json:"top_prefixes"`
	Districts   []DistrictCount `json:"districts,omitempty"`
	// Late counts kept records no hour can hold: they predate Origin or
	// lie MaxWindowHours or more past it. A record is never late for
	// arriving behind the window, so what a fold of states reports does
	// not depend on when checkpoints ran.
	Late uint64 `json:"late"`
	// Located counts kept records the geolocation sidecar could place.
	Located uint64 `json:"located"`
}

// Figure2 derives the paper's Figure-2 result from the snapshot series via
// the same core code path the batch pipeline uses, so a stream that saw
// every record produces a byte-identical result. It requires an
// origin-anchored window that still covers every study hour (flows
// crossing the capture's final midnight land just past the study end, so
// live configurations size WindowHours with some spill margin); hours
// beyond the study window are ignored, exactly as the batch pipeline
// drops records outside it.
func (s *Snapshot) Figure2(curve *adoption.Curve) (*core.Figure2Result, error) {
	hours := entime.StudyHours()
	if !s.Origin.Equal(entime.StudyStart) || s.SeriesStart != 0 || s.WindowHours < hours {
		return nil, fmt.Errorf("streaming: window [%s +%dh, start %d] does not cover the study hours",
			s.Origin, s.WindowHours, s.SeriesStart)
	}
	flows := stats.NewTimeSeries(entime.StudyStart, time.Hour, hours)
	bytes := stats.NewTimeSeries(entime.StudyStart, time.Hour, hours)
	for _, p := range s.Hours {
		if p.Hour < hours {
			flows.Add(p.Time, p.Flows)
			bytes.Add(p.Time, p.Bytes)
		}
	}
	return core.Figure2FromSeries(flows, bytes, curve)
}
