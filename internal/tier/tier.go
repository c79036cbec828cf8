// Package tier is the long-horizon half of the durable store: it folds
// raw hourly checkpoint frames into daily and weekly downsampled frames
// (Prometheus/Thanos-style compaction tiers), the accumulator a query
// sums them with, and the codec of a frame. The motivation is the paper's
// multi-week dynamics — pandemic-wave upload/download behaviour (FW3)
// and per-prefix persistence (T2) only show up over months, but raw
// Query cost scales linearly with frames touched and the exact prefix
// map grows without bound. A tier frame is a fixed-size summary: exact
// downsampled flow/byte buckets, exact census and district rollups
// (bounded cardinality), and bounded-memory sketches (internal/sketch)
// for the two unbounded aggregates — distinct client prefixes and
// per-prefix presence.
//
// The design invariants, in the order they matter:
//
//   - Tier frames partition the raw FRAME SEQUENCE by WAL interval
//     (BaseSeg/CoveredSeg chains), not by wall clock. Raw checkpoint
//     frames are not time-resolved inside (census, prefixes), so a
//     wall-clock partition would double-count a frame straddling a day
//     boundary; WAL intervals are exactly disjoint by construction. Day
//     alignment is only the fold TRIGGER: a run of raw frames closes
//     when a later frame's hours prove the run's day is complete (see
//     CloseRuns), and only closed runs fold — the open run is the raw
//     tail a query stitches on top. A query walks the levels down from
//     its resolution's, each taken past the coverage of the one above,
//     so every source covers a disjoint slice of the WAL.
//   - Folds are additive: a tier frame is durable before it is visible,
//     and its inputs are never deleted by the fold itself (the store's
//     existing no-eviction compaction keeps raw exactness; the
//     compaction guard keeps raw frames from straddling the tier
//     coverage horizon).
//   - Folds are deterministic: inputs fold oldest-first in WAL order,
//     aggregates are commutative sums, sketches are order-invariant,
//     and the codec is canonical — the same raw frames produce
//     byte-identical tier frames at any worker count.
//   - Exactness boundary: hour-resolution answers never touch tiers
//     (the raw path is untouched); day/week answers are exact for
//     buckets, census, districts, late and located (those are sums of
//     exact per-frame values) and approximate only for the two
//     sketched aggregates, which the Answer flags explicitly.
package tier

import (
	"fmt"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/sketch"
)

// Level is a downsampling tier. Higher levels fold runs of the level
// below: day frames fold raw checkpoint frames, week frames fold day
// frames.
type Level uint8

const (
	// LevelCheckpoint is the store's own hourly checkpoint frames, the
	// level every tier folds from.
	LevelCheckpoint Level = 0
	// LevelDay frames fold raw hourly checkpoint frames, one per
	// completed origin-relative day.
	LevelDay Level = 1
	// LevelWeek frames fold day frames, one per completed
	// origin-relative week.
	LevelWeek Level = 2
)

// BucketHours is the bucket width (and fold-trigger alignment) of the
// level, in origin-relative hours.
func (l Level) BucketHours() int {
	switch l {
	case LevelDay:
		return 24
	case LevelWeek:
		return 7 * 24
	}
	return 0
}

// String names the level the way tier file names and metrics do.
func (l Level) String() string {
	switch l {
	case LevelDay:
		return "day"
	case LevelWeek:
		return "week"
	}
	return fmt.Sprintf("level-%d", uint8(l))
}

// Resolution is the answer granularity that reads from the level.
func (l Level) Resolution() Resolution { return Resolution(l.String()) }

// Resolution selects the answer granularity of a range query.
type Resolution string

const (
	// ResolutionHour is the exact raw path: hourly series from raw
	// checkpoint frames, untouched by this package.
	ResolutionHour Resolution = "hour"
	// ResolutionDay answers from day frames plus the raw residual.
	ResolutionDay Resolution = "day"
	// ResolutionWeek answers from week frames, then day frames beyond
	// week coverage, then the raw residual.
	ResolutionWeek Resolution = "week"
	// ResolutionAuto picks by span: hour up to ~a week, day up to ~two
	// months, week beyond.
	ResolutionAuto Resolution = "auto"
)

// ParseResolution parses the query parameter; the empty string is the
// backward-compatible exact hourly path.
func ParseResolution(s string) (Resolution, error) {
	switch Resolution(s) {
	case "", ResolutionHour:
		return ResolutionHour, nil
	case ResolutionDay, ResolutionWeek, ResolutionAuto:
		return Resolution(s), nil
	}
	return "", fmt.Errorf("resolution %q: want hour, day, week or auto", s)
}

// AutoSpan resolves ResolutionAuto by span: hour up to ~a week (8 days,
// so a "last 7 days" dashboard stays exact), day up to ~two months (62
// days), week beyond. Open bounds are filled from the store's history
// bounds before the span is measured; a fully open query over an empty
// store answers at hour resolution.
func AutoSpan(from, to, histStart, histEnd time.Time) Resolution {
	if from.IsZero() {
		from = histStart
	}
	if to.IsZero() {
		to = histEnd
	}
	if from.IsZero() || to.IsZero() || !to.After(from) {
		return ResolutionHour
	}
	span := to.Sub(from)
	switch {
	case span <= 8*24*time.Hour:
		return ResolutionHour
	case span <= 62*24*time.Hour:
		return ResolutionDay
	default:
		return ResolutionWeek
	}
}

// Level returns the tier level a concrete resolution reads from
// (LevelCheckpoint for hour). Auto must be resolved first.
func (r Resolution) Level() Level {
	switch r {
	case ResolutionDay:
		return LevelDay
	case ResolutionWeek:
		return LevelWeek
	}
	return LevelCheckpoint
}

// nReasons sizes the per-frame drop census array, mirroring streaming.
const nReasons = int(core.DropUpstream) + 1

// Bucket is one downsampled point of the flow/byte series: the exact
// sum of the hourly bins in [StartHour, StartHour+BucketHours).
// Flows/Bytes stay float64 like streaming.HourPoint; the values are
// integer-valued, so accumulation is exact and order-free.
type Bucket struct {
	// StartHour is the bucket's first origin-relative hour, aligned to
	// the level's bucket width.
	StartHour int64     `json:"start_hour"`
	Time      time.Time `json:"time,omitzero"`
	Flows     float64   `json:"flows"`
	Bytes     float64   `json:"bytes"`
}

// District is one exact per-district flow count inside a tier frame.
// Names are not stored — they are display metadata the API layer
// re-attaches from the geolocation model, exactly as the raw path does.
type District struct {
	ID    string `json:"id"`
	Flows uint64 `json:"flows"`
}

// Frame is one durable tier frame: the downsampled, sketch-carrying
// summary of a closed run of lower-level inputs.
type Frame struct {
	Level Level
	// Seq is the frame's unique file identity, allocated from the
	// store's frame sequence space (never reused).
	Seq uint64
	// BaseSeg/CoveredSeg bound the half-open WAL interval
	// (BaseSeg, CoveredSeg] the frame's inputs folded — the union of
	// the inputs' consecutive intervals. A query's selection and the
	// compaction straddle guard both key on it.
	BaseSeg    uint64
	CoveredSeg uint64
	// MinHour/MaxHour bound the kept-record hours (-1 when the run held
	// only dropped-record accounting).
	MinHour, MaxHour int64
	// Inputs counts the lower-level frames folded in.
	Inputs uint32

	// Exact aggregates: census totals, drop reasons (indexed by
	// core.DropReason; slot 0, Kept, is unused), late/located counters
	// and per-district rollups.
	Total, Kept   uint64
	Dropped       []uint64
	Late, Located uint64
	Districts     []District

	// Buckets is the exact downsampled series, aligned to
	// Level.BucketHours(), sorted by StartHour.
	Buckets []Bucket

	// The two sketched aggregates: distinct client prefixes and the
	// per-prefix daily presence distribution (each observation is one
	// prefix-day; its value is the number of raw checkpoint frames of
	// that day containing the prefix, ≈ presence hours at the hourly
	// checkpoint cadence).
	Prefixes *sketch.HLL
	Presence *sketch.Quantile

	// districtIdx is each Districts row's index in the one district id
	// space (streaming.NoDistrict outside the model), resolved once where
	// the frame is decoded or built; nil for a frame built by hand.
	districtIdx []uint32
	// sources is how many tier frames the frame stands for when it is a
	// run of them merged once (Builder.Run); zero, as decoded, is one.
	sources int
}

// Size is the heap footprint of the frame in bytes, for callers that
// budget how many they keep: 6 KiB of sketches, at most 64 bytes a row.
func (f *Frame) Size() int { return 6<<10 + 64*(len(f.Dropped)+len(f.Buckets)+len(f.Districts)) }

// Meta is a frame's identity and coverage without its payload: what run
// grouping (CloseRuns), the folds and a query's selection read. Level is
// LevelCheckpoint for a raw checkpoint frame (the store's frame metadata
// embeds it).
type Meta struct {
	Level            Level
	Seq              uint64
	BaseSeg          uint64
	CoveredSeg       uint64
	MinHour, MaxHour int64
}

// Meta returns the frame's metadata.
func (f *Frame) Meta() Meta {
	return Meta{Level: f.Level, Seq: f.Seq, BaseSeg: f.BaseSeg,
		CoveredSeg: f.CoveredSeg, MinHour: f.MinHour, MaxHour: f.MaxHour}
}

// HoursOverlap reports whether the inclusive origin-relative hour
// interval [minHour, maxHour] intersects [from, to) (zero times are
// open bounds). Absent bounds (-1: accounting only) always overlap, so
// the census reaches every query — the same rule the raw store applies.
func HoursOverlap(origin time.Time, minHour, maxHour int64, from, to time.Time) bool {
	if minHour < 0 {
		return true
	}
	start := origin.Add(time.Duration(minHour) * time.Hour)
	end := origin.Add(time.Duration(maxHour+1) * time.Hour)
	if !to.IsZero() && !start.Before(to) {
		return false
	}
	if !from.IsZero() && !end.After(from) {
		return false
	}
	return true
}
