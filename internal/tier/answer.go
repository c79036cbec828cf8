package tier

// The answer side of the subsystem: a Builder accumulates the planner's
// selected tier frames plus the exact raw residual and renders one
// Answer — the long-horizon block of a query response. The same bucket
// and sketch accumulation the folds use lives here, so fold-time and
// query-time aggregation cannot drift apart.

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/geo"
	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
)

// Answer is the long-horizon result of a day- or week-resolution query:
// exact downsampled buckets and census, plus the two sketched
// aggregates. Approximate is always true — not because the buckets are
// (they are exact sums), but because distinct-prefix and presence
// figures are estimates and census aggregates are reported at tier-
// frame granularity for partial ranges, same as the raw path's
// frame-granularity caveat.
type Answer struct {
	Resolution  Resolution `json:"resolution"`
	Approximate bool       `json:"approximate"`
	// BucketHours is the bucket width of Buckets.
	BucketHours int      `json:"bucket_hours"`
	Buckets     []Bucket `json:"buckets,omitempty"`
	// TierFrames/RawFrames count the sources merged: tier frames at any
	// level, and raw checkpoint frames stitched as the residual tail.
	TierFrames int `json:"tier_frames"`
	RawFrames  int `json:"raw_frames"`
	// Exact aggregates summed across every merged source.
	Census    core.Census               `json:"census"`
	Late      uint64                    `json:"late"`
	Located   uint64                    `json:"located"`
	Districts []streaming.DistrictCount `json:"districts,omitempty"`
	// DistinctPrefixes estimates the distinct client prefixes over the
	// range (HLL, ~1.6% typical error). Presence summarizes the
	// per-prefix daily presence-hours distribution; Presence.Count is
	// the number of prefix-day observations, not prefixes.
	DistinctPrefixes uint64         `json:"distinct_prefixes"`
	Presence         sketch.Summary `json:"presence"`
	// PrefixSketch/PresenceSketch carry the marshaled sketch state:
	// estimates cannot be summed (prefix sets overlap between shards),
	// sketches can, so a consumer that wants to combine answers merges
	// these (see Frame for how the cluster router does).
	PrefixSketch   []byte `json:"prefix_sketch,omitempty"`
	PresenceSketch []byte `json:"presence_sketch,omitempty"`
}

// bucketMap accumulates level-aligned buckets out of order.
type bucketMap struct {
	width int64
	m     map[int64]*Bucket
}

func newBucketMap(level Level) bucketMap {
	return bucketMap{width: int64(level.BucketHours()), m: map[int64]*Bucket{}}
}

func (bm bucketMap) add(hour int64, flows, bytes float64) {
	start := hour - hour%bm.width
	b := bm.m[start]
	if b == nil {
		b = &Bucket{StartHour: start}
		bm.m[start] = b
	}
	b.Flows += flows
	b.Bytes += bytes
}

func (bm bucketMap) addHours(hours []streaming.HourPoint) {
	for _, p := range hours {
		if p.Flows == 0 && p.Bytes == 0 {
			continue
		}
		bm.add(int64(p.Hour), p.Flows, p.Bytes)
	}
}

// render returns the buckets sorted by StartHour, with Time filled from
// origin when non-zero (frames store no Time; answers render it).
func (bm bucketMap) render(origin *time.Time) []Bucket {
	out := make([]Bucket, 0, len(bm.m))
	for _, b := range bm.m {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartHour < out[j].StartHour })
	if origin != nil {
		for i := range out {
			out[i].Time = origin.Add(time.Duration(out[i].StartHour) * time.Hour)
		}
	}
	return out
}

// sortDistricts renders a district accumulation map sorted by ID — the
// canonical order every district list in the system uses.
func sortDistricts(m map[string]uint64) []District {
	if len(m) == 0 {
		return nil
	}
	out := make([]District, 0, len(m))
	for id, flows := range m {
		out = append(out, District{ID: id, Flows: flows})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SketchAccum feeds the two sketches from per-shard prefix tables:
// the HLL sees every distinct prefix, the presence map counts how many
// shards (raw checkpoint frames) each prefix appeared in. Folds use it
// per run; queries use it over the raw residual.
type SketchAccum struct {
	hll      *sketch.HLL
	presence map[string]uint64
}

// NewSketchAccum builds an empty accumulator.
func NewSketchAccum() *SketchAccum {
	return &SketchAccum{hll: sketch.NewHLL(), presence: map[string]uint64{}}
}

// AddShard folds one shard's full prefix table in, given its prefix
// enumeration: the EachPrefix method of a live streaming.Analytics or of
// a decoded streaming.Stored.
func (sa *SketchAccum) AddShard(eachPrefix func(fn func(p netip.Prefix, flows uint64))) {
	eachPrefix(func(p netip.Prefix, flows uint64) {
		s := p.String()
		sa.hll.Add(s)
		sa.presence[s]++
	})
}

// fill writes the accumulated sketches into a frame. Map iteration
// order is irrelevant: HLL adds and quantile adds are order-invariant.
func (sa *SketchAccum) fill(f *Frame) {
	f.Prefixes.Merge(sa.hll)
	for _, hours := range sa.presence {
		f.Presence.Add(hours, 1)
	}
}

// Builder accumulates a plan's sources into one Answer.
type Builder struct {
	res        Resolution
	origin     time.Time
	buckets    bucketMap
	hll        *sketch.HLL
	quant      *sketch.Quantile
	census     core.Census
	late       uint64
	located    uint64
	districts  map[string]uint64
	tierFrames int
	rawFrames  int
}

// NewBuilder starts an answer at a concrete (non-auto) resolution.
func NewBuilder(res Resolution, origin time.Time) *Builder {
	return &Builder{
		res:       res,
		origin:    origin,
		buckets:   newBucketMap(res.Level()),
		hll:       sketch.NewHLL(),
		quant:     sketch.NewQuantile(),
		census:    core.Census{Dropped: map[core.DropReason]int{}},
		districts: map[string]uint64{},
	}
}

// AddFrame folds one selected tier frame in. Day buckets re-bucket into
// week buckets when the answer is coarser than the frame.
func (b *Builder) AddFrame(f *Frame) {
	b.tierFrames++
	b.census.Total += int(f.Total)
	b.census.Kept += int(f.Kept)
	for r, n := range f.Dropped {
		if n > 0 && core.DropReason(r) != core.Kept {
			b.census.Dropped[core.DropReason(r)] += int(n)
		}
	}
	b.late += f.Late
	b.located += f.Located
	for _, d := range f.Districts {
		b.districts[d.ID] += d.Flows
	}
	for _, bk := range f.Buckets {
		b.buckets.add(bk.StartHour, bk.Flows, bk.Bytes)
	}
	b.hll.Merge(f.Prefixes)
	b.quant.Merge(f.Presence)
}

// AddResidual folds the exact raw tail in: the snapshot the raw path
// rendered over the residual frames and live tail, plus the sketch
// accumulator fed from those shards (the snapshot's prefix leaderboard
// is TopK-truncated, so it cannot feed the sketches). rawFrames is how
// many residual checkpoint frames contributed.
func (b *Builder) AddResidual(snap *streaming.Snapshot, acc *SketchAccum, rawFrames int) {
	b.rawFrames += rawFrames
	if snap != nil {
		b.census.Total += snap.Census.Total
		b.census.Kept += snap.Census.Kept
		for r, n := range snap.Census.Dropped {
			b.census.Dropped[r] += n
		}
		b.late += snap.Late
		b.located += snap.Located
		for _, d := range snap.Districts {
			b.districts[d.ID] += d.Flows
		}
		b.buckets.addHours(snap.Hours)
	}
	if acc != nil {
		b.hll.Merge(acc.hll)
		for _, hours := range acc.presence {
			b.quant.Add(hours, 1)
		}
	}
}

// Answer renders the accumulated state.
func (b *Builder) Answer() *Answer {
	ans := &Answer{
		Resolution:       b.res,
		Approximate:      true,
		BucketHours:      b.res.Level().BucketHours(),
		Buckets:          b.buckets.render(&b.origin),
		TierFrames:       b.tierFrames,
		RawFrames:        b.rawFrames,
		Census:           b.census,
		Late:             b.late,
		Located:          b.located,
		DistinctPrefixes: b.hll.Estimate(),
		Presence:         b.quant.Summarize(),
		PrefixSketch:     b.hll.AppendBinary(nil),
		PresenceSketch:   b.quant.AppendBinary(nil),
	}
	if len(b.districts) > 0 {
		ids := make([]string, 0, len(b.districts))
		for id := range b.districts {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			ans.Districts = append(ans.Districts, streaming.DistrictCount{ID: id, Flows: b.districts[id]})
		}
	}
	return ans
}

// Frame renders the answer as a tier frame at the answer's level, the
// form a shard ships its long-horizon state to the cluster router in:
// the router folds shard frames with AddFrame exactly as a store folds
// the frames on its disk, and EncodeFrame/DecodeFrame are the (fuzzed)
// wire codec. The frame carries the aggregates and both sketches; it has
// no file identity or WAL interval, and the answer's source counts
// (TierFrames, RawFrames) and rendered labels travel beside it, not in it.
func (a *Answer) Frame() (*Frame, error) {
	level := a.Resolution.Level()
	if level == 0 {
		return nil, fmt.Errorf("tier: no frame level for resolution %q", a.Resolution)
	}
	f := &Frame{
		Level:   level,
		MinHour: -1,
		MaxHour: -1,
		Total:   uint64(a.Census.Total),
		Kept:    uint64(a.Census.Kept),
		Dropped: make([]uint64, nReasons),
		Late:    a.Late,
		Located: a.Located,
	}
	for r, n := range a.Census.Dropped {
		if r < 0 || int(r) >= nReasons || n < 0 {
			return nil, fmt.Errorf("tier: census drop reason %d with count %d", r, n)
		}
		f.Dropped[r] = uint64(n)
	}
	for _, d := range a.Districts {
		if len(d.ID) > math.MaxUint8 {
			return nil, fmt.Errorf("tier: district id %q too long for a frame", d.ID)
		}
		f.Districts = append(f.Districts, District{ID: d.ID, Flows: d.Flows})
	}
	for _, b := range a.Buckets {
		f.Buckets = append(f.Buckets, Bucket{StartHour: b.StartHour, Flows: b.Flows, Bytes: b.Bytes})
	}
	var err error
	if f.Prefixes, _, err = sketch.DecodeHLL(a.PrefixSketch); err != nil {
		return nil, fmt.Errorf("tier: answer prefix sketch: %w", err)
	}
	if f.Presence, _, err = sketch.DecodeQuantile(a.PresenceSketch); err != nil {
		return nil, fmt.Errorf("tier: answer presence sketch: %w", err)
	}
	return f, nil
}

// Label fills the district names and state codes in from the geo model.
// Frames and builders carry ids only; every renderer of an answer (the
// store, the cluster router) labels it last. A nil model leaves the
// labels blank.
func (a *Answer) Label(m *geo.Model) {
	if m == nil {
		return
	}
	for i := range a.Districts {
		if d, ok := m.DistrictByID(a.Districts[i].ID); ok {
			a.Districts[i].Name, a.Districts[i].StateCode = d.Name, d.StateCode
		}
	}
}
