package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// storedOf decodes the state of a shard holding n prefixes.
func storedOf(t *testing.T, n int) *streaming.Stored {
	t.Helper()
	a := streaming.New(testConfig())
	for i := 0; i < n; i++ {
		a.Ingest([]netflow.Record{keptRecord(1, i*256, 100)})
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st, err := streaming.DecodeStored(testConfig(), blob)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFrameCacheEvictsLeastRecentlyUsedWithinBudget pins the cache's
// bound: accounted bytes never exceed the budget, the entry read longest
// ago goes first, a state larger than the whole budget is not kept, and
// replacing or dropping an entry returns its bytes.
func TestFrameCacheEvictsLeastRecentlyUsedWithinBudget(t *testing.T) {
	small, big := storedOf(t, 4), storedOf(t, 400)
	c := newFrameCache(3*int64(small.Size()) + 1)
	put := func(seq uint64, st *streaming.Stored) { c.put(frameKey(seq), st) }
	get := func(seq uint64) any { return c.get(frameKey(seq)) }
	for seq := uint64(1); seq <= 3; seq++ {
		put(seq, small)
	}
	if get(1) == nil { // 2 is now the least recently used
		t.Fatal("entry 1 missing before the budget was reached")
	}
	put(4, small)
	if get(2) != nil || get(1) == nil || get(3) == nil || get(4) == nil {
		t.Fatalf("after one eviction the cache holds %v, want 1, 3 and 4", keys(c))
	}
	if c.bytes != 3*int64(small.Size()) || c.bytes > c.budget {
		t.Fatalf("accounted %d bytes for three entries of %d under a budget of %d", c.bytes, small.Size(), c.budget)
	}
	put(9, big)
	if get(9) != nil || len(c.entries) != 3 {
		t.Fatalf("a %d-byte state entered a %d-byte cache: %v", big.Size(), c.budget, keys(c))
	}
	put(4, small) // replacing must not double-count
	c.retain(func(k runKey) bool { return k == frameKey(4) })
	if len(c.entries) != 1 || c.bytes != int64(small.Size()) {
		t.Fatalf("after retain(4): %v, %d bytes, want one entry of %d", keys(c), c.bytes, small.Size())
	}
	if c.hits != 4 || c.misses != 2 {
		t.Fatalf("%d hits, %d misses, want 4 and 2", c.hits, c.misses)
	}
	// What the store caches is resolved: a prefix id per row, counted.
	resolved := storedOf(t, 4)
	streaming.NewPrefixTable().Resolve(resolved)
	if resolved.Size() != small.Size()+4*4 {
		t.Fatalf("resolved state of 4 prefixes sized %d, unresolved %d", resolved.Size(), small.Size())
	}
	put(5, resolved)
	if c.bytes != int64(small.Size()+resolved.Size()) {
		t.Fatalf("accounted %d bytes for entries of %d and %d", c.bytes, small.Size(), resolved.Size())
	}
}

func keys(c *frameCache) []runKey {
	var out []runKey
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// checkFrameCache requires the cache to hold nothing but registered
// frames and runs from a registered frame to a later one of the same
// list, with its byte accounting exact and within the budget. Valid only
// after a Checkpoint with no query in flight.
func checkFrameCache(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	at := map[uint64][2]int{} // seq: level, position
	for l, list := range s.levels {
		for i, fm := range list {
			at[fm.Seq] = [2]int{l, i}
		}
	}
	s.mu.Unlock()
	c := s.frameCache
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for k, e := range c.entries {
		first, ok1 := at[k.first]
		last, ok2 := at[k.last]
		if !ok1 || !ok2 || first[0] != last[0] || last[1] < first[1] {
			t.Errorf("cache holds %+v, which names no frame or run of registered frames", k)
		}
		sum += e.size
	}
	if sum != c.bytes || c.bytes > c.budget {
		t.Errorf("cache accounts %d bytes for entries totalling %d under a budget of %d", c.bytes, sum, c.budget)
	}
}

// TestFreshPrefixTableKeepsTierFrames: past the prefix table's cap a
// checkpoint starts a fresh table and drops what was resolved against the
// old one, the checkpoint states and their runs. Tier frames and their runs
// hold sketch registers, not prefix ids: every registered tier frame and
// every run of them stays cached rather than being read from disk again.
func TestFreshPrefixTableKeepsTierFrames(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	for day := 0; day < 24; day++ {
		fillDay(t, s, day)
	}
	for _, res := range []tier.Resolution{tier.ResolutionDay, tier.ResolutionWeek} {
		if _, err := s.QueryResolution(time.Time{}, time.Time{}, res); err != nil {
			t.Fatal(err)
		}
	}
	// tierEntries is every cached key whose first frame is a tier frame,
	// and every registered tier frame.
	tierEntries := func() (cached map[runKey]bool, registered []runKey) {
		s.mu.Lock()
		levels := s.levels
		s.mu.Unlock()
		tiered := map[uint64]bool{}
		for _, list := range levels[tier.LevelDay:] {
			for _, fm := range list {
				tiered[fm.Seq] = true
				registered = append(registered, frameKey(fm.Seq))
			}
		}
		cached = map[runKey]bool{}
		for _, k := range keys(s.frameCache) {
			cached[k] = tiered[k.first]
		}
		return cached, registered
	}
	before, _ := tierEntries()
	s.prefixCap = 1
	old := s.prefixes.Load()
	fillDay(t, s, 24)
	if s.prefixes.Load() == old {
		t.Fatal("the checkpoint past the cap kept the prefix table")
	}
	checkFrameCache(t, s)
	after, registered := tierEntries()
	for k, tiered := range after {
		if !tiered {
			t.Errorf("the cache holds %+v, resolved against the replaced table", k)
		}
	}
	runs := 0
	for k, tiered := range before {
		if tiered && !after[k] {
			t.Errorf("tier entry %+v left the cache with the prefix table", k)
		}
		if tiered && k.first != k.last {
			runs++
		}
	}
	for _, k := range registered {
		if !after[k] {
			t.Errorf("tier frame %d is not cached", k.first)
		}
	}
	if runs == 0 || len(registered) < 2*minRun {
		t.Fatalf("%d tier runs cached over %d tier frames: the fixture builds too few", runs, len(registered))
	}
}

// TestFrameCacheCoherentUnderChurn runs Append × Checkpoint × compaction
// × tier folds against concurrent Query/QueryResolution readers on a
// store with four frames and tiny segments, one simulated day per round.
// While a round churns, readers ask for the history before that day —
// which no append of the round can touch, however compaction and folds
// regroup it — and must see exactly the hourly series and day buckets a
// second, read-only open of the directory served at the last quiesced
// point. At each quiesced point every answer of the live store, whole,
// equals the read-only open's. Afterwards the cache holds only
// registered frames within its budget, and a reopen (whose cache Open
// seeded) answers identically without a single miss.
func TestFrameCacheCoherentUnderChurn(t *testing.T) {
	const (
		rounds  = 10
		writers = 3
		readers = 3
	)
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2048, MaxFrames: 4}
	s := mustOpen(t, dir, opts)
	defer s.Close()

	type query struct {
		from, to time.Time
		res      tier.Resolution
	}
	ask := func(st *Store, q query) *QueryResult {
		r, err := st.QueryResolution(q.from, q.to, q.res)
		if err != nil {
			t.Errorf("query [%s, %s) at %q: %v", q.from, q.to, q.res, err)
			return nil
		}
		return r
	}
	// historyOf is what a reader may compare while the store churns: the
	// exact part of an answer over a range no append touches (rendered,
	// because a read-only open parses its origin into another *Location).
	historyOf := func(r *QueryResult) string {
		switch {
		case r == nil:
			return ""
		case r.LongHorizon != nil:
			return snapJSON(t, r.LongHorizon.Buckets)
		}
		return snapJSON(t, r.Snapshot().Hours)
	}
	quiesced := func(day int) (frozen []query, want []string) {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ro := mustOpen(t, dir, Options{ReadOnly: true})
		defer ro.Close()
		all := []query{
			{res: tier.ResolutionHour},
			{res: tier.ResolutionDay},
			{res: tier.ResolutionWeek},
			{from: at(24 * (day / 2)), to: at(24*(day/2) + 30), res: tier.ResolutionHour},
		}
		for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay} {
			frozen = append(frozen, query{to: at(24 * day), res: res}, query{from: at(24 * (day / 3)), to: at(24 * day), res: res})
		}
		all = append(all, frozen...)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range all {
					if got, ref := snapJSON(t, ask(s, q)), snapJSON(t, ask(ro, q)); got != ref {
						t.Errorf("day %d, [%s, %s) at %q: live store and read-only open disagree:\n%s\n%s",
							day, q.from, q.to, q.res, got, ref)
					}
				}
			}()
		}
		wg.Wait()
		for _, q := range frozen {
			want = append(want, historyOf(ask(ro, q)))
		}
		return frozen, want
	}

	for day := 0; day < rounds; day++ {
		frozen, want := quiesced(day)
		var churn, read sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			churn.Add(1)
			go func(w int) {
				defer churn.Done()
				for i := 0; i < 40; i++ {
					hour := day*24 + (i*7+w)%24
					if err := s.Append([]netflow.Record{keptRecord(hour, (day*3+i%5)*256, uint64(100+i)), droppedRecord(hour, w)}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}(w)
		}
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 6; i++ {
				if err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}()
		for g := 0; g < readers; g++ {
			read.Add(1)
			go func(g int) {
				defer read.Done()
				for i := g; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := frozen[i%len(frozen)]
					if got := historyOf(ask(s, q)); got != want[i%len(frozen)] {
						t.Errorf("day %d under churn, [%s, %s) at %q: history changed:\n%s\n%s",
							day, q.from, q.to, q.res, got, want[i%len(frozen)])
						return
					}
				}
			}(g)
		}
		churn.Wait()
		close(stop)
		read.Wait()
		if t.Failed() {
			return
		}
	}
	quiesced(rounds)
	checkFrameCache(t, s)
	m := s.Metrics()
	if m.CompactedFrames == 0 || m.TierFolds < rounds-1 || m.TierFramesWeek == 0 {
		t.Fatalf("the run compacted %d frame pairs and folded %d tier frames (%d week): the churn did not cover compaction and both fold levels",
			m.CompactedFrames, m.TierFolds, m.TierFramesWeek)
	}

	full := query{res: tier.ResolutionHour}
	before := ask(s, full)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if was, now := snapJSON(t, before), snapJSON(t, ask(s2, full)); was != now {
		t.Fatalf("reopen answers differently:\n%s\n%s", was, now)
	}
	frames := m.Frames + m.TierFramesDay + m.TierFramesWeek
	if c := s2.frameCache; c.misses != 0 || int(c.hits) != before.Frames || len(c.entries) != frames {
		t.Fatalf("reopened cache: %d entries for %d frames, %d hits and %d misses on a %d-frame query: Open did not seed it",
			len(c.entries), frames, c.hits, c.misses, before.Frames)
	}
	checkFrameCache(t, s2)
}

// TestDamagedFrameNeverEntersTheCache pins the cache's side of the disk
// trust boundary: a frame file damaged after the store registered it is
// an error on every read that has to touch the file — never a cached
// partial — and reads served from the cache are untouched by it.
func TestDamagedFrameNeverEntersTheCache(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	for day := 0; day < 2; day++ {
		fillDay(t, s, day)
	}
	want, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint files %v (err %v), want 2", files, err)
	}
	damaged := files[1] // the newer frame: queries read the intact one first
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Both frames were read before the damage: the answer stands.
	if got, err := s.Query(time.Time{}, time.Time{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("cached frames: err %v, answer changed %t", err, !reflect.DeepEqual(got, want))
	}
	// Once the file has to be read again, every read fails.
	s.frameCache.retain(func(runKey) bool { return false })
	for i := 0; i < 2; i++ {
		if _, err := s.Query(time.Time{}, time.Time{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %d of a damaged frame: err %v, want ErrCorrupt", i, err)
		}
	}
	if len(s.frameCache.entries) != 1 {
		t.Fatalf("cache holds %v after reading one intact and one damaged frame", keys(s.frameCache))
	}
	if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a damaged frame: err %v, want ErrCorrupt", err)
	}
}
