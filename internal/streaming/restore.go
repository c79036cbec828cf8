package streaming

import "cwatrace/internal/core"

// FromSnapshot rebuilds an Analytics shard from a rendered Snapshot, the
// inverse of Snapshot for everything Merge consumes: how a rendered
// answer becomes mergeable again. No serving path builds this shard — a
// shard answering the cluster query router encodes the fold behind the
// rendering (Range.Stored) — but what FromSnapshot(s).MarshalBinary()
// encodes is the reference the fold's bytes are tested against, and the
// end-to-end harness times it.
//
// The snapshot must be a full rendering (no field selection, no top-K
// truncation): omitted sections come back zero, and a truncated
// leaderboard would merge as if the tail prefixes never existed. Two
// render-time derivations are intentionally not state and need no
// restoring: spikes are recomputed from the hourly series on the next
// snapshot, and Census.Total is the sum of the per-reason counters.
//
// Zero-flow gap hours inside the rendered window reconstruct as populated
// empty bins. The live shard cannot tell the two apart either — Snapshot
// renders every hour of the covered span, populated or not — so the
// round trip stays byte-identical.
func FromSnapshot(s *Snapshot) *Analytics {
	a := New(Config{Origin: s.Origin, WindowHours: s.WindowHours})
	// A rendered snapshot holds no hour addBin refuses; a hand-built one
	// degrades exactly like live ingestion of such a record.
	for _, p := range s.Hours {
		a.addBin(p.Hour, p.Flows, p.Bytes)
	}

	for reason, n := range s.Census.Dropped {
		if r := int(reason); r >= 0 && r < len(a.dropped) {
			a.dropped[r] = uint64(n)
		}
	}
	a.dropped[core.Kept] = uint64(s.Census.Kept)
	a.late += s.Late

	for _, pc := range s.TopPrefixes {
		a.prefixCount[a.internPrefix(pc.Prefix)] = pc.Flows
	}

	if len(s.Districts) > 0 || s.Located > 0 {
		a.hasDistricts = true
		for _, dc := range s.Districts {
			a.districts.set(NoDistrict, dc.ID, dc.Flows)
		}
	}
	a.located = s.Located
	return a
}
