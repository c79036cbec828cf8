// The store metric catalogue: the scalar names predate the registry
// (cmd/collectord rendered them from Metrics() by hand) and are frozen
// by the daemons' exposition tests; the duration histograms cover the
// I/O stages an operator tunes against — append (one commit: WAL
// write-through and tail folds under the hot mutex, then the policy
// fsync outside it), fsync (the policy-driven durability cost),
// checkpoint (tail fold + frame write) and tier fold (one observation
// per day or week frame written; the refused-fold test holds it to
// that). Everything scalar reads the store's existing counters under
// mu at render time, so the append path carries only the histogram
// clocks. The three store_frame_cache_* samples read the frame cache
// (framecache.go); their consumers are the warm-query test, the
// hit-share line of EXPERIMENTS.md and the DESIGN.md runbook row for a
// year-span query that got slow again.
package store

import (
	"time"

	"cwatrace/internal/obs"
	"cwatrace/internal/tier"
)

// storeObsMetrics holds the store's hot-path instruments. The zero
// value (all nil) is the disabled mode.
type storeObsMetrics struct {
	appendSeconds     *obs.Histogram
	fsyncSeconds      *obs.Histogram
	checkpointSeconds *obs.Histogram
	tierFoldSeconds   *obs.Histogram
}

func (m *storeObsMetrics) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.appendSeconds = reg.Histogram("store_append_seconds",
		"Commit latency: framing, one segment write, tail folds, policy fsync, for the batches of one Append or AppendGroup (mean group size = store.appended_batches of /api/v1/stats / store_append_seconds_count).",
		obs.DurationBuckets)
	m.fsyncSeconds = reg.Histogram("store_fsync_seconds",
		"Active-segment fsync latency (SyncAlways commits and periodic flushes; commits an earlier fsync already covered issue none).",
		obs.DurationBuckets)
	m.checkpointSeconds = reg.Histogram("store_checkpoint_seconds",
		"Checkpoint latency: seal, tail marshal, frame write, WAL fold.",
		obs.DurationBuckets)
	m.tierFoldSeconds = reg.Histogram("store_tier_fold_seconds",
		"Long-horizon tier fold latency (per day or week frame).",
		obs.DurationBuckets)
}

// registerStoreFuncs wires the render-time samples onto the registry.
// Each sample takes the store mutex exactly like Metrics() — render
// cadence, never the append path.
func registerStoreFuncs(reg *obs.Registry, s *Store) {
	if reg == nil {
		return
	}
	gauge, counter := reg.GaugeFunc, reg.CounterFunc
	locked := func(pick func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return pick()
		}
	}
	gauge("store_segments", "Live WAL segment files (sealed plus active).",
		locked(func() float64 { n, _, _ := s.wal.stats(); return float64(n) }))
	gauge("store_wal_bytes", "Total WAL bytes on disk.",
		locked(func() float64 { _, b, _ := s.wal.stats(); return float64(b) }))
	gauge("store_frames", "Checkpoint frames on disk.",
		locked(func() float64 { return float64(len(s.levels[tier.LevelCheckpoint])) }))
	gauge("store_tail_records", "Records appended since the last checkpoint (crash replay cost).",
		locked(func() float64 { return float64(s.tailRecords) }))
	gauge("store_last_checkpoint_age_seconds", "Seconds since the newest checkpoint frame.",
		locked(func() float64 { return time.Since(s.lastCheckpoint).Seconds() }))
	gauge("store_watermark_timestamp_seconds",
		"Newest record start timestamp folded into the store (unix seconds; 0 before traffic).",
		locked(func() float64 {
			wm := s.watermark
			if w := s.tail.Watermark(); w.After(wm) {
				wm = w
			}
			if wm.IsZero() {
				return 0
			}
			return float64(wm.UnixNano()) / 1e9
		}))
	counter("store_appended_records_total", "Records appended this process.",
		locked(func() float64 { return float64(s.appendedRecords) }))
	counter("store_checkpoints_total", "Checkpoints folded this process.",
		locked(func() float64 { return float64(s.checkpoints) }))
	counter("store_compacted_frames_total", "Compaction frames written this process.",
		locked(func() float64 { return float64(s.compacted) }))
	counter("store_recovered_wal_records_total", "WAL records replayed at open.",
		locked(func() float64 { return float64(s.recoveredWAL) }))
	counter("store_recovered_frames_total", "Checkpoint frames loaded at open.",
		locked(func() float64 { return float64(s.recoveredFrames) }))
	// The decoded-frame cache has its own leaf mutex; a sample never takes
	// the store mutex for it.
	cache := s.frameCache
	cached := func(pick func() float64) func() float64 {
		return func() float64 {
			cache.mu.Lock()
			defer cache.mu.Unlock()
			return pick()
		}
	}
	counter("store_frame_cache_hits_total", "Checkpoint and tier frame reads, and runs of frames a query adds as one, served from the frame cache.",
		cached(func() float64 { return float64(cache.hits) }))
	counter("store_frame_cache_misses_total", "Frame reads that read and decoded the frame file, and runs that were merged anew (a miss rate near the query rate means the working set exceeds the cache budget).",
		cached(func() float64 { return float64(cache.misses) }))
	gauge("store_frame_cache_bytes", "Decoded frames and merged runs held in the frame cache (bounded by a 64 MiB constant).",
		cached(func() float64 { return float64(cache.bytes) }))
	counter("store_tier_folds_day_total", "Day tier folds this process.",
		locked(func() float64 { return float64(s.tierFolds[tier.LevelDay]) }))
	counter("store_tier_folds_week_total", "Week tier folds this process.",
		locked(func() float64 { return float64(s.tierFolds[tier.LevelWeek]) }))
}
