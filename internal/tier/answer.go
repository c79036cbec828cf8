package tier

// The accumulator of the subsystem. A Builder sums tier aggregates —
// census, late and located, districts, level-aligned buckets, the two
// sketches — from tier frames (AddFrame) and from an exact raw part
// (AddResidual), and renders the sums as an Answer, the long-horizon block
// of a query response, or as a Frame, the form they are written to disk
// and shipped between daemons in. It is the only place either is summed:
// a day fold is the run's merged states as one residual, a week fold the
// run's day frames, a query its selected frames plus the raw tail, a
// shard's answer to a router the same builder's frame, and the router's
// merge those frames added again.

import (
	"fmt"
	"math"
	"slices"
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
	// these (a cluster router is sent Builder.Frame, which holds them).
	PrefixSketch   []byte `json:"prefix_sketch,omitempty"`
	PresenceSketch []byte `json:"presence_sketch,omitempty"`
}

// buckets accumulates level-aligned buckets, kept sorted by StartHour.
// Sources arrive oldest first — tier frames in WAL order, then the raw
// residual's ascending hours — so nearly every add lands in the last
// bucket or opens the next one; anything older is inserted in place.
type buckets struct {
	width int64
	list  []Bucket
}

func newBuckets(level Level) buckets {
	return buckets{width: int64(level.BucketHours())}
}

func (bs *buckets) add(hour int64, flows, bytes float64) {
	start := hour - hour%bs.width
	at := len(bs.list) - 1
	switch {
	case at >= 0 && bs.list[at].StartHour == start:
	case at < 0 || bs.list[at].StartHour < start:
		at++
		bs.list = append(bs.list, Bucket{StartHour: start})
	default:
		at = sort.Search(len(bs.list), func(i int) bool { return bs.list[i].StartHour >= start })
		if bs.list[at].StartHour != start {
			bs.list = slices.Insert(bs.list, at, Bucket{StartHour: start})
		}
	}
	bs.list[at].Flows += flows
	bs.list[at].Bytes += bytes
}

// render returns the buckets sorted by StartHour, with Time filled from
// origin when non-nil (frames store no Time; answers render it).
func (bs *buckets) render(origin *time.Time) []Bucket {
	out := slices.Clone(bs.list)
	if out == nil {
		out = []Bucket{}
	}
	if origin != nil {
		for i := range out {
			out[i].Time = origin.Add(time.Duration(out[i].StartHour) * time.Hour)
		}
	}
	return out
}

// SketchAccum feeds the two sketches from per-shard prefix tables:
// the HLL sees every distinct prefix, the presence counts how many
// shards (raw checkpoint frames) each prefix appeared in. Folds use it
// per run; queries use it over the raw residual. It counts by prefix id,
// in the table the first state added was resolved against (a table of
// its own when that one was not), and reads each prefix's hash from it.
type SketchAccum struct {
	hll      *sketch.HLL
	table    *streaming.PrefixTable
	presence []presence // by prefix id
	touched  []uint32   // the ids with a presence, first seen first
	shard    uint32     // counts AddShard calls: the shard being added
}

// presence is how many shards a prefix appeared in, and the last of them.
type presence struct{ shards, last uint32 }

// NewSketchAccum builds an empty accumulator.
func NewSketchAccum() *SketchAccum {
	return &SketchAccum{hll: sketch.NewHLL()}
}

// AddShard folds one shard's full prefix tables in: a prefix several of the
// states hold counts once (the store's live tails are one shard). The HLL
// item is the prefix's text, as since the first tier frame was written,
// hashed once per table id: adding one twice changes nothing.
func (sa *SketchAccum) AddShard(states ...*streaming.Stored) {
	sa.shard++
	for _, st := range states {
		if sa.table == nil {
			if sa.table = st.Table(); sa.table == nil {
				sa.table = streaming.NewPrefixTable()
			}
		}
		ids := sa.table.IDs(st)
		hashes := sa.table.Hashes()
		if len(sa.presence) < len(hashes) {
			sa.presence = append(sa.presence, make([]presence, len(hashes)-len(sa.presence))...)
		}
		for _, id := range ids {
			if e := &sa.presence[id]; e.last != sa.shard {
				if e.shards == 0 {
					sa.hll.AddHash(hashes[id])
					sa.touched = append(sa.touched, id)
				}
				e.shards, e.last = e.shards+1, sa.shard
			}
		}
	}
}

// Builder accumulates a query's sources into one Answer.
type Builder struct {
	res     Resolution
	origin  time.Time
	buckets buckets
	hll     *sketch.HLL
	quant   *sketch.Quantile
	census  core.Census
	late    uint64
	located uint64
	// Per-district flows by index in the one district id space: one a
	// source named with zero flows is still listed in the answer.
	districts  streaming.DistrictSums
	tierFrames int
	rawFrames  int
}

// NewBuilder starts an answer at a concrete (non-auto) resolution.
func NewBuilder(res Resolution, origin time.Time) *Builder {
	return &Builder{
		res:     res,
		origin:  origin,
		buckets: newBuckets(res.Level()),
		hll:     sketch.NewHLL(),
		quant:   sketch.NewQuantile(),
		census:  core.Census{Dropped: map[core.DropReason]int{}},
	}
}

// AddFrame folds one selected tier frame in, counting it as the frames it
// stands for. Day buckets re-bucket into week buckets when the answer is
// coarser than the frame.
func (b *Builder) AddFrame(f *Frame) {
	b.tierFrames += max(f.sources, 1)
	b.census.Total += int(f.Total)
	b.census.Kept += int(f.Kept)
	// Slot 0 (core.Kept) is not a drop reason: Kept carries that count. No
	// fold fills the slot, so one that arrives set (a decoded frame nothing
	// here wrote) is not summed.
	for r, n := range f.Dropped {
		if n > 0 && core.DropReason(r) != core.Kept {
			b.census.Dropped[core.DropReason(r)] += int(n)
		}
	}
	b.late += f.Late
	b.located += f.Located
	for j, d := range f.Districts {
		i := uint32(streaming.NoDistrict)
		if f.districtIdx != nil {
			i = f.districtIdx[j]
		}
		b.districts.Add(i, d.ID, d.Flows)
	}
	for _, bk := range f.Buckets {
		b.buckets.add(bk.StartHour, bk.Flows, bk.Bytes)
	}
	b.hll.Merge(f.Prefixes)
	b.quant.Merge(f.Presence)
}

// AddResidual folds the exact raw tail in: the raw path's fold over the
// residual frames and live tail — its totals, its district sums by index
// and the hours it renders — plus the sketch accumulator fed from those
// shards (the fold keeps no prefix rows but by id, and renders only a
// TopK leaderboard, so it cannot feed the sketches). rawFrames is how many
// residual checkpoint frames contributed.
func (b *Builder) AddResidual(r *streaming.Range, acc *SketchAccum, rawFrames int) {
	b.rawFrames += rawFrames
	if r != nil {
		census, late, located, districts := r.Totals()
		b.census.Total += census.Total
		b.census.Kept += census.Kept
		for r, n := range census.Dropped {
			b.census.Dropped[r] += n
		}
		b.late += late
		b.located += located
		b.districts.Merge(districts)
		lo, flows, bytes := r.Series()
		for i := range flows {
			if flows[i] != 0 || bytes[i] != 0 {
				b.buckets.add(int64(lo+i), flows[i], bytes[i])
			}
		}
	}
	if acc != nil {
		b.hll.Merge(acc.hll)
		for _, id := range acc.touched {
			b.quant.Add(uint64(acc.presence[id].shards), 1)
		}
	}
}

// Answer renders the accumulated state, its districts named from m; a nil
// m leaves them unnamed. Frames and builders carry ids only: every
// renderer of an answer (the store, the cluster router) names them here.
func (b *Builder) Answer(m *geo.Model) *Answer {
	return &Answer{
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
		Districts:        b.districts.Counts(m != nil),
	}
}

// Frame renders the accumulated state as a tier frame at the builder's
// level, under the identity and coverage the caller gives it: a fold's are
// those of its run, and the frame a shard ships its long-horizon state to
// the cluster router in has none (zero, hours -1) — the router folds shard
// frames with AddFrame exactly as a store folds the frames on its disk, and
// the answer's source counts and rendered labels travel beside the frame,
// not in it. The frame holds the builder's sketches, not copies: it is the
// last thing asked of a builder that is added to no more. What the codec
// cannot carry is refused here, so no frame is written or sent that
// DecodeFrame will not take back.
func (b *Builder) Frame(m Meta, inputs int) (*Frame, error) {
	level := b.res.Level()
	if level == 0 {
		return nil, fmt.Errorf("tier: no frame level for resolution %q", b.res)
	}
	f := &Frame{
		Level:      level,
		Seq:        m.Seq,
		BaseSeg:    m.BaseSeg,
		CoveredSeg: m.CoveredSeg,
		MinHour:    m.MinHour,
		MaxHour:    m.MaxHour,
		Inputs:     uint32(inputs),
		Total:      uint64(b.census.Total),
		Kept:       uint64(b.census.Kept),
		Dropped:    make([]uint64, nReasons),
		Late:       b.late,
		Located:    b.located,
		Buckets:    b.buckets.render(nil),
		Prefixes:   b.hll,
		Presence:   b.quant,
	}
	for r, n := range b.census.Dropped {
		if r < 0 || int(r) >= nReasons || n < 0 {
			return nil, fmt.Errorf("tier: census drop reason %d with count %d", r, n)
		}
		f.Dropped[r] = uint64(n)
	}
	// The rows in id order, each with the index a fold adds it by.
	if n := b.districts.Len(); n > 0 {
		f.Districts, f.districtIdx = make([]District, 0, n), make([]uint32, 0, n)
	}
	var long string
	b.districts.Each(func(i uint32, id string, flows uint64) {
		if len(id) > math.MaxUint8 { // the codec's length byte
			long = id
		}
		f.Districts, f.districtIdx = append(f.Districts, District{ID: id, Flows: flows}), append(f.districtIdx, i)
	})
	if long != "" {
		return nil, fmt.Errorf("tier: district id %q too long for a frame", long)
	}
	return f, nil
}

// Run renders the sums as a frame without identity, coverage or hours that
// stands for every tier frame added: a store merges a run of its frames
// once, and a query adds it in their place, still counting each of them.
func (b *Builder) Run() (*Frame, error) {
	f, err := b.Frame(Meta{MinHour: -1, MaxHour: -1}, b.tierFrames)
	if err == nil {
		f.sources = b.tierFrames
	}
	return f, err
}
