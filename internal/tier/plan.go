package tier

// The span-aware query planner. Given the tier frame sets and a time
// range, it picks the coarsest combination that covers the range —
// week frames first, then day frames beyond week coverage, then the
// raw residual (raw frames past day coverage plus the live tail) —
// using WAL-interval disjointness for sum-safety: every source covers
// a disjoint slice of the raw frame sequence, so nothing is counted
// twice no matter where fold boundaries fell.

import "time"

// Plan is one resolved query plan: the tier frames to merge per level
// and the residual floor for raw frames. Hour resolution yields the
// zero plan — the raw path runs untouched.
type Plan struct {
	// Resolution is concrete (auto already resolved).
	Resolution Resolution
	// Week/Day list the selected tier frame Seqs, oldest first.
	Week, Day []uint64
	// RawFloor is the residual boundary: raw checkpoint frames with
	// BaseSeg >= RawFloor are beyond every selected tier's coverage and
	// merge exactly, along with the live tail. Tier coverage is always
	// a prefix of the WAL (folds run oldest-first), so a single floor
	// suffices — provided raw compaction never merges a frame pair
	// straddling it, which the store guards.
	RawFloor uint64
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

// BuildPlan selects sources for a concrete resolution. weeks and days
// are the durable tier frames per level, ordered by their WAL chain
// (oldest first); selection is by hour overlap, mirroring the raw
// path's rule (accounting-only frames always ride along). Plan.Week and
// Plan.Day name frames in the order weeks and days list them — the store
// matches them back to its metadata in one walk of both.
func BuildPlan(res Resolution, origin time.Time, from, to time.Time, weeks, days []FrameMeta) Plan {
	p := Plan{Resolution: res}
	if res != ResolutionDay && res != ResolutionWeek {
		p.Resolution = ResolutionHour
		return p
	}

	// Week frames serve only week resolution; below them, day frames
	// cover the WAL interval weeks left open.
	var weekCovered uint64
	if res == ResolutionWeek {
		for _, m := range weeks {
			if m.CoveredSeg > weekCovered {
				weekCovered = m.CoveredSeg
			}
			if HoursOverlap(origin, m.MinHour, m.MaxHour, from, to) {
				p.Week = append(p.Week, m.Seq)
			}
		}
	}
	for _, m := range days {
		if m.CoveredSeg > p.RawFloor {
			p.RawFloor = m.CoveredSeg
		}
		if m.BaseSeg < weekCovered {
			// Folded into a selected-or-skipped week frame already;
			// taking it too would double-count its WAL slice.
			continue
		}
		if HoursOverlap(origin, m.MinHour, m.MaxHour, from, to) {
			p.Day = append(p.Day, m.Seq)
		}
	}
	return p
}
