package store

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/geo"
	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// foldPerFrame is tryQuery without runs and without the frame cache —
// every selected frame read from its file (readFrame resolves nothing
// against the store's prefix table) and added alone, the lists read as one
// cut — and the reference the run cover is held to. Its selection is
// spelled out level by level, apart from the walk it checks: week frames
// only at week resolution, day frames past the week coverage at day and
// week resolution, raw frames past the day coverage of a day or week
// answer. Its prefix and district rows still go through the folds and the
// sketch accumulator under test, so beside the result it keeps them the
// plain way, in a prefixModel.
func foldPerFrame(t *testing.T, s *Store, from, to time.Time, res tier.Resolution) (*QueryResult, *prefixModel) {
	t.Helper()
	if res == tier.ResolutionAuto {
		start, end := s.historyBounds()
		res = tier.AutoSpan(from, to, start, end)
	}
	s.mu.Lock()
	weeks, days, frames := s.levels[tier.LevelWeek], s.levels[tier.LevelDay], s.levels[tier.LevelCheckpoint]
	live := s.detachLive(from, to)
	s.mu.Unlock()
	overlaps := func(fm frameMeta) bool { return tier.HoursOverlap(s.cfg.Origin, fm.MinHour, fm.MaxHour, from, to) }
	var selected []frameMeta
	var weekCovered, rawFloor uint64
	if res == tier.ResolutionWeek {
		for _, fm := range weeks {
			weekCovered = max(weekCovered, fm.CoveredSeg)
			if overlaps(fm) {
				selected = append(selected, fm)
			}
		}
	}
	if res == tier.ResolutionDay || res == tier.ResolutionWeek {
		for _, fm := range days {
			rawFloor = max(rawFloor, fm.CoveredSeg)
			if fm.BaseSeg >= weekCovered && overlaps(fm) {
				selected = append(selected, fm)
			}
		}
	}
	r := &QueryResult{From: from, To: to, TailIncluded: live != nil}
	model := newPrefixModel()
	tiered := res == tier.ResolutionDay || res == tier.ResolutionWeek
	acc := tier.NewSketchAccum()
	if tiered {
		r.Resolution, r.tiered = res, tier.NewBuilder(res, s.cfg.Origin)
		for _, fm := range selected {
			_, v, err := s.readFrame(fm)
			if err != nil {
				t.Fatal(err)
			}
			f := v.(*tier.Frame)
			r.tiered.AddFrame(f)
			for _, d := range f.Districts {
				model.tierDistricts[d.ID] += d.Flows
			}
			model.hll.Merge(f.Prefixes)
			model.quant.Merge(f.Presence)
		}
	}
	var states []*streaming.Stored
	for _, fm := range frames {
		if fm.BaseSeg >= rawFloor && overlaps(fm) {
			_, v, err := s.readFrame(fm)
			if err != nil {
				t.Fatal(err)
			}
			st := v.(*streaming.Stored)
			states = append(states, st)
			acc.AddShard(st)
			model.addShard(st)
			r.Frames++
		}
	}
	r.fold = streaming.Fold(s.cfg, from, to, append(states, live...)...)
	model.addShard(live...)
	for _, st := range append(states, live...) {
		// A state's own rows, each state rendered alone: the sums across
		// states and frames are the model's.
		for _, d := range streaming.Fold(s.cfg, time.Time{}, time.Time{}, st).Snapshot().Districts {
			model.rawDistricts[d.ID] += d.Flows
		}
	}
	if tiered {
		acc.AddShard(live...)
		r.tiered.AddResidual(r.fold.Populated(), acc, r.Frames)
		r.LongHorizon = r.tiered.Answer(s.cfg.Model)
	}
	return r, model
}

// prefixModel is the prefix half of an answer in maps: the flows of every
// prefix row folded, and in how many shards each appeared — a raw frame is
// one, the live tails together another — beside the sketches of the tier
// frames selected; and the district rows, the raw states' and the tier
// frames' apart.
type prefixModel struct {
	flows, shards               map[netip.Prefix]uint64
	hll                         *sketch.HLL
	quant                       *sketch.Quantile
	rawDistricts, tierDistricts map[string]uint64
}

func newPrefixModel() *prefixModel {
	return &prefixModel{flows: map[netip.Prefix]uint64{}, shards: map[netip.Prefix]uint64{},
		hll: sketch.NewHLL(), quant: sketch.NewQuantile(),
		rawDistricts: map[string]uint64{}, tierDistricts: map[string]uint64{}}
}

// districtRows renders summed maps the plain way: sorted by id, named from
// model (nil: unnamed), nil when empty.
func districtRows(model *geo.Model, sums ...map[string]uint64) []streaming.DistrictCount {
	all := map[string]uint64{}
	for _, m := range sums {
		for id, n := range m {
			all[id] += n
		}
	}
	var rows []streaming.DistrictCount
	for _, id := range slices.Sorted(maps.Keys(all)) {
		dc := streaming.DistrictCount{ID: id, Flows: all[id]}
		if model != nil {
			d, _ := model.DistrictByID(id)
			dc.Name, dc.StateCode = d.Name, d.StateCode
		}
		rows = append(rows, dc)
	}
	return rows
}

// stateRows is every prefix row of st with its flows: st rendered alone,
// its leaderboard uncut.
func stateRows(st *streaming.Stored) []streaming.PrefixCount {
	return streaming.Fold(streaming.Config{TopK: math.MaxInt32}, time.Time{}, time.Time{}, st).Snapshot().TopPrefixes
}

// addShard counts states as one shard.
func (m *prefixModel) addShard(states ...*streaming.Stored) {
	seen := map[netip.Prefix]bool{}
	for _, st := range states {
		for _, pc := range stateRows(st) {
			m.flows[pc.Prefix] += pc.Flows
			if !seen[pc.Prefix] {
				seen[pc.Prefix] = true
				m.shards[pc.Prefix]++
			}
		}
	}
}

// check holds r to the model: the leaderboard and the state a shard ships
// are the model's busiest rows, the district rows are the model's sums in
// id order, named where cfg names them, and a day or week answer's
// sketches are the tier frames' with every residual prefix added by its text.
func (m *prefixModel) check(t *testing.T, r *QueryResult, cfg streaming.Config) {
	t.Helper()
	rows := make([]streaming.PrefixCount, 0, len(m.flows))
	for p, n := range m.flows {
		rows = append(rows, streaming.PrefixCount{Prefix: p, Flows: n})
	}
	byRank := func(a, b streaming.PrefixCount) int {
		if a.Flows != b.Flows {
			return cmp.Compare(b.Flows, a.Flows)
		}
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits())
	}
	slices.SortFunc(rows, byRank)
	want := rows[:min(cfg.TopK, len(rows))]
	if got := r.Snapshot().TopPrefixes; !slices.Equal(got, want) {
		t.Fatalf("leaderboard %v, the model's %v", got, want)
	}
	st, _ := r.State()
	shipped := stateRows(st)
	if slices.SortFunc(shipped, byRank); !slices.Equal(shipped, want) {
		t.Fatalf("shipped state holds %v, the model's leaderboard %v", shipped, want)
	}
	if got, want := r.Snapshot().Districts, districtRows(cfg.Model, m.rawDistricts); !slices.Equal(got, want) {
		t.Fatalf("districts %v, the model's %v", got, want)
	}
	if r.LongHorizon == nil {
		return
	}
	if got, want := r.LongHorizon.Districts, districtRows(cfg.Model, m.rawDistricts, m.tierDistricts); !slices.Equal(got, want) {
		t.Fatalf("long-horizon districts %v, the model's %v", got, want)
	}
	for p, n := range m.shards {
		m.hll.Add(p.String())
		m.quant.Add(n, 1)
	}
	if !bytes.Equal(r.LongHorizon.PrefixSketch, m.hll.AppendBinary(nil)) || !bytes.Equal(r.LongHorizon.PresenceSketch, m.quant.AppendBinary(nil)) {
		t.Fatalf("sketches differ from the model's: %d distinct, presence %+v; the model's %d, %+v",
			r.LongHorizon.DistinctPrefixes, r.LongHorizon.Presence, m.hll.Estimate(), m.quant.Summarize())
	}
}

// answerOf is everything a body is rendered from: the result and its
// rendering as JSON, and the state a shard ships for it.
func answerOf(t *testing.T, r *QueryResult) string {
	t.Helper()
	st, origin := r.State()
	state, err := st.AppendBinary(nil, origin)
	if err != nil {
		t.Fatal(err)
	}
	if r.LongHorizon != nil {
		f, err := r.Frame()
		if err != nil {
			t.Fatal(err)
		}
		state = append(state, tier.EncodeFrame(f)...)
	}
	return snapJSON(t, r) + snapJSON(t, r.Snapshot()) + string(state)
}

// checkAgainstPerFrame asks s and the per-frame reference the same
// question and requires the same answer, byte for byte, with a prefix half
// that is the model's.
func checkAgainstPerFrame(t *testing.T, s *Store, from, to time.Time, res tier.Resolution) *QueryResult {
	t.Helper()
	got, err := s.QueryResolution(from, to, res)
	if err != nil {
		t.Fatalf("[%s, %s) at %q: %v", from, to, res, err)
	}
	ref, model := foldPerFrame(t, s, from, to, res)
	if a, b := answerOf(t, got), answerOf(t, ref); a != b {
		t.Fatalf("[%s, %s) at %q: runs answer\n%q\nthe per-frame fold\n%q", from, to, res, a, b)
	}
	model.check(t, got, s.cfg)
	return got
}

// TestCoverTilesEachStretchOnce holds cover to its contract over random
// frame lists shaped like a store's — BaseSegs mostly consecutive, now
// and then a compacted frame's wide gap — and random selections below a
// raw floor and with holes: every selected frame lies in exactly one
// block and no unselected one in any, so no block crosses a stretch
// boundary or the floor; every block is aligned, the list's frames whose
// BaseSeg agrees above some bit and nothing else; and a stretch takes at
// most two blocks per bit of the BaseSegs it spans.
func TestCoverTilesEachStretchOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 1000; round++ {
		n := 1 + rng.Intn(400)
		bases := make([]uint64, n)
		next := uint64(rng.Intn(1000))
		for i := range bases {
			bases[i] = next
			next++
			if rng.Intn(10) == 0 {
				next += uint64(rng.Intn(300))
			}
		}
		floor := bases[rng.Intn(n)]
		if rng.Intn(3) == 0 {
			floor = 0
		}
		selected := make([]bool, n)
		lo, hi := rng.Intn(n), rng.Intn(n+1)
		for i := range selected {
			selected[i] = bases[i] >= floor && i >= lo && i < hi && rng.Intn(20) != 0
		}
		base := func(i int) uint64 { return bases[i] }
		covered := make([]int, n)
		blocks := map[int]int{} // stretch start: blocks
		stretch := -1
		err := cover(n, base, func(i int) bool { return selected[i] }, func(lo, hi int) error {
			if lo == 0 || !selected[lo-1] {
				stretch = lo
			}
			blocks[stretch]++
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			aligned := false
			for k := 0; k < 64 && !aligned; k++ {
				aligned = true
				for i, b := range bases {
					aligned = aligned && (b>>k == bases[lo]>>k) == (i >= lo && i < hi)
				}
			}
			if !aligned {
				t.Fatalf("round %d: block [%d, %d) of bases %v is not aligned", round, lo, hi, bases[lo:hi])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range covered {
			if want := map[bool]int{true: 1, false: 0}[selected[i]]; c != want {
				t.Fatalf("round %d: frame %d (selected %t) covered %d times", round, i, selected[i], c)
			}
		}
		for start, nb := range blocks {
			end := start
			for end < n && selected[end] {
				end++
			}
			if limit := 2 * bits.Len64(bases[end-1]-bases[start]+1); nb > limit {
				t.Fatalf("round %d: stretch [%d, %d) over bases %d..%d took %d blocks, want at most %d",
					round, start, end, bases[start], bases[end-1], nb, limit)
			}
		}
	}
}

// TestYearSpanFoldsLogFrames pins the cost of a year-span answer where
// it cannot rot, in the manner of TestShortQueryCostsItsSpanNotTheWindow:
// on a store holding 390 days — a checkpoint a day, compacted at 64
// frames, day and week frames folded — a warm 364-day hour, day or week
// answer adds at most 2·log2(n) + 2·minRun sources for the n frames behind
// it, where it added n, and answers byte for byte what the per-frame fold
// does. Every source is one frame-cache hit, so the hits of a repeat
// count them. The last compaction runs at the 362nd checkpoint and leaves
// frame 0 with days [0, 331), so every span has at least 2·minRun frames
// behind it.
func TestYearSpanFoldsLogFrames(t *testing.T) {
	const days = 390
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	for day := 0; day < days; day++ {
		fillDay(t, s, day)
	}
	c := s.frameCache
	for _, start := range []int{0, 17, 36} {
		from, to := at(24*start), at(24*(start+364))
		for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay, tier.ResolutionWeek} {
			checkAgainstPerFrame(t, s, from, to, res) // cold: builds the runs
			hits, misses := c.hits, c.misses
			r := checkAgainstPerFrame(t, s, from, to, res)
			n := r.Frames
			if r.LongHorizon != nil {
				n += r.LongHorizon.TierFrames
			}
			// The per-frame reference reads no frame through the cache: the
			// hits are the repeat's own.
			sources := int(c.hits - hits)
			t.Logf("364 days from day %d at %s: %d sources for %d frames", start, res, sources, n)
			if c.misses != misses {
				t.Fatalf("day %d at %s: the repeat missed %d times", start, res, c.misses-misses)
			}
			if limit := 2*bits.Len(uint(n)) + 2*minRun; sources > limit || n < 2*minRun {
				t.Fatalf("day %d at %s: %d sources for %d frames, want at most %d", start, res, sources, n, limit)
			}
		}
	}
}

// TestRunsSurviveCheckpointAndCompaction pins what a checkpoint costs the
// runs: on 64 frames whose queries built runs, one more day's checkpoint
// pushes the store past MaxFrames, and compaction folds the oldest 34
// frames into one, which leaves 32. The sweep that ends the checkpoint
// drops exactly the runs holding one of those inputs; the same queries
// again rebuild only runs that hold the merged frame, start right after
// it (a block can start there now) or hold the new one — their misses are
// those runs and the new frame's decode — and answer byte for byte what
// the per-frame fold and a fresh read-only open do.
func TestRunsSurviveCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	defer s.Close()
	for day := 0; day < 64; day++ {
		fillDay(t, s, day)
	}
	spans := [][2]int{{0, 65}, {8, 40}, {16, 48}, {32, 65}, {1, 60}}
	ask := func() (answers []string) {
		for _, d := range spans {
			r := checkAgainstPerFrame(t, s, at(24*d[0]), at(24*d[1]), tier.ResolutionHour)
			answers = append(answers, answerOf(t, r))
		}
		return answers
	}
	runs := func() map[runKey]bool {
		c := s.frameCache
		c.mu.Lock()
		defer c.mu.Unlock()
		out := map[runKey]bool{}
		for k := range c.entries {
			if k.first != k.last {
				out[k] = true
			}
		}
		return out
	}
	ask()
	before := runs()
	inputs := map[uint64]bool{}
	s.mu.Lock()
	for _, fm := range s.levels[tier.LevelCheckpoint][:34] {
		inputs[fm.Seq] = true
	}
	s.mu.Unlock()

	fillDay(t, s, 64)
	s.mu.Lock()
	frames := append([]frameMeta(nil), s.levels[tier.LevelCheckpoint]...)
	s.mu.Unlock()
	if len(frames) != 32 || frames[0].BaseSeg != 0 || frames[0].Records != 34*frames[2].Records || inputs[frames[1].Seq] {
		t.Fatalf("%d frames after the checkpoint, the oldest %+v: the oldest 34 did not compact", len(frames), frames[0])
	}
	kept := runs()
	survivors := 0
	for k := range before {
		// The inputs are the oldest frames: a run holding one starts with one.
		if holdsInput := inputs[k.first]; kept[k] == holdsInput {
			t.Errorf("run %+v (holds a compacted input: %t) kept %t by the sweep", k, holdsInput, kept[k])
		}
		if kept[k] {
			survivors++
		}
	}
	pos := map[uint64]int{}
	for i, fm := range frames {
		pos[fm.Seq] = i
	}
	misses := s.frameCache.misses
	got := ask()
	rebuilt := 0
	for k := range runs() {
		if !kept[k] {
			rebuilt++
			// A block may start where the merged frame ends, which was
			// inside one before: its run is new as well.
			if pos[k.first] > 1 && pos[k.last] != len(frames)-1 {
				t.Errorf("run %+v was rebuilt, but neither holds the merged frame or the new one nor starts past the merged frame", k)
			}
		}
	}
	t.Logf("%d runs built, %d survived the checkpoint, %d rebuilt", len(before), survivors, rebuilt)
	// The reference reads past the cache; the merged frame was cached by
	// its compaction, the new one by the queries' own decode.
	if m := s.frameCache.misses - misses; survivors == 0 || rebuilt == 0 || m != uint64(rebuilt)+1 {
		t.Fatalf("the queries after the checkpoint missed %d times: %d runs survived, %d were rebuilt, want the rebuilt runs and one decode",
			m, survivors, rebuilt)
	}
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	defer ro.Close()
	for i, d := range spans {
		r, err := ro.QueryResolution(at(24*d[0]), at(24*d[1]), tier.ResolutionHour)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := answerOf(t, r); fresh != got[i] {
			t.Fatalf("days [%d, %d): a read-only open answers differently:\n%q\n%q", d[0], d[1], fresh, got[i])
		}
	}
}

// TestPrefixTableStartsAfreshPastItsCap drives a store's prefix table past
// a lowered cap while a reader keeps asking: three new /24s a day, a
// checkpoint a day, compaction at eight frames, tiers folded. Past the cap
// a checkpoint starts a fresh table and drops the checkpoint states from
// the frame cache, and the
// store answers every hour, day and auto question byte for byte as a store
// at the default cap fed the same does, and as its per-frame reference
// does. The table never holds more ids than the cap or the prefixes the
// store holds, whichever is more: every id a replaced table gave out for a
// read is gone with it.
func TestPrefixTableStartsAfreshPastItsCap(t *testing.T) {
	const capIDs = 16
	opts := Options{Sync: SyncNever, MaxFrames: 8}
	capped, free := mustOpen(t, t.TempDir(), opts), mustOpen(t, t.TempDir(), opts)
	defer capped.Close()
	defer free.Close()
	capped.prefixCap = capIDs

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for h := 0; ; h = (h + 7) % 600 {
			select {
			case <-done:
				return
			default:
			}
			if _, err := capped.QueryResolution(at(h), at(h+200), tier.ResolutionDay); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	tables := map[*streaming.PrefixTable]bool{}
	for day := 0; day < 24; day++ {
		fillDay(t, capped, day)
		fillDay(t, free, day)
		tab := capped.prefixes.Load()
		tables[tab] = true
		rows := 3*day + 5 // the /24s fillDay has appended so far
		if n := tab.Len(); n > max(capIDs, rows) {
			t.Fatalf("day %d: %d ids in the table, the store holds %d prefixes", day, n, rows)
		}
		for _, q := range [][2]int{{0, 24 * (day + 1)}, {24 * day, 24 * (day + 1)}, {24 * max(day-5, 0), 24*day + 12}} {
			for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay, tier.ResolutionAuto} {
				got := checkAgainstPerFrame(t, capped, at(q[0]), at(q[1]), res)
				want, err := free.QueryResolution(at(q[0]), at(q[1]), res)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := answerOf(t, got), answerOf(t, want); a != b {
					t.Fatalf("day %d, hours [%d, %d) at %s: the capped store answers\n%q\nthe other\n%q", day, q[0], q[1], res, a, b)
				}
			}
		}
		if a, b := snapJSON(t, capped.Snapshot()), snapJSON(t, free.Snapshot()); a != b {
			t.Fatalf("day %d: snapshots differ:\n%s\n%s", day, a, b)
		}
	}
	close(done)
	wg.Wait()
	if len(tables) < 3 {
		t.Fatalf("%d prefix tables over 24 days of 3 new /24s under a cap of %d", len(tables), capIDs)
	}
	if free.prefixes.Load().Len() != 3*24+2 {
		t.Fatalf("the uncapped table holds %d ids, want every /24 once", free.prefixes.Load().Len())
	}
}
