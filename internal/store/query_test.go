package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// buildQueryStore checkpoints three disjoint hour ranges and leaves a
// tail, mirroring a collector that ran for "weeks" with periodic
// checkpoints: frame 1 hours 0-3, frame 2 hours 10-13, frame 3 hours
// 20-23, tail hours 30-31.
// Query is QueryResolution at hour resolution, the exact answer: the
// frames overlapping [from, to) merged with the live tail, trimmed to the
// range. Zero bounds are open ends: Query(zero, zero) covers the store's
// whole history.
func (s *Store) Query(from, to time.Time) (*QueryResult, error) {
	return s.QueryResolution(from, to, tier.ResolutionHour)
}

func buildQueryStore(t *testing.T, dir string) (*Store, *streaming.Analytics) {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	ref := streaming.New(testConfig())
	hourBlocks := [][]int{{0, 1, 2, 3}, {10, 11, 12, 13}, {20, 21, 22, 23}}
	n := 0
	for _, hours := range hourBlocks {
		for _, h := range hours {
			batch := []netflow.Record{keptRecord(h, n, uint64(100+h)), droppedRecord(h, n)}
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			ref.Ingest(batch)
			n++
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []int{30, 31} {
		batch := []netflow.Record{keptRecord(h, n, uint64(100+h))}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.Ingest(batch)
		n++
	}
	return s, ref
}

func at(h int) time.Time { return entime.StudyStart.Add(time.Duration(h) * time.Hour) }

// TestParseTime pins the two accepted query-bound forms (RFC 3339 and
// unix seconds) every store consumer documents: collectord's /query and
// /api/v1/query params, cwanalyze's -from/-to flags.
func TestParseTime(t *testing.T) {
	cases := []struct {
		in      string
		want    time.Time
		wantErr bool
	}{
		{in: "", want: time.Time{}},
		{in: "2020-06-16T00:00:00Z", want: time.Date(2020, 6, 16, 0, 0, 0, 0, time.UTC)},
		{in: "2020-06-16T02:00:00+02:00", want: time.Date(2020, 6, 16, 0, 0, 0, 0, time.UTC)},
		{in: "1592265600", want: time.Date(2020, 6, 16, 0, 0, 0, 0, time.UTC)},
		{in: "0", want: time.Unix(0, 0).UTC()},
		{in: "-3600", want: time.Unix(-3600, 0).UTC()},
		{in: "2020-06-16", wantErr: true},           // date without time
		{in: "1592265600.5", wantErr: true},         // fractional seconds
		{in: "16 Jun 2020", wantErr: true},          // prose
		{in: "0x5ee80000", wantErr: true},           // hex
		{in: " 1592265600", wantErr: true},          // stray whitespace
		{in: "99999999999999999999", wantErr: true}, // overflows int64
		{in: "253402300799", want: time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)},
		{in: "253402300800", wantErr: true},        // year 10000: RFC 3339 cannot echo it
		{in: "-62167219201", wantErr: true},        // year -1
		{in: "9223372036854775807", wantErr: true}, // wraps inside time.Unix
	}
	for _, tc := range cases {
		got, err := ParseTime(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTime(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTime(%q): %v", tc.in, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("ParseTime(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestVersionSemantics pins the ETag-feeding generation contract: a
// frames-only historical range keeps its token across live appends
// outside the range and loses it on the next checkpoint; any range the
// tail can serve changes token on every append; and reopening the store
// changes every token (the boot nonce).
func TestVersionSemantics(t *testing.T) {
	dir := t.TempDir()
	s, _ := buildQueryStore(t, dir) // frames: hours 0-3, 10-13, 20-23; tail: 30-31

	hist := s.Version(at(0), at(4))
	full := s.Version(time.Time{}, time.Time{})
	tailRange := s.Version(at(30), time.Time{})
	if hist == full || hist == tailRange {
		t.Fatalf("distinct ranges share a token: hist=%x full=%x tail=%x", hist, full, tailRange)
	}
	if got := s.Version(at(0), at(4)); got != hist {
		t.Fatalf("idle token not stable: %x then %x", hist, got)
	}

	// An append far outside the historical range: frames-only token
	// stays, full-history and tail-range tokens move.
	if err := s.Append([]netflow.Record{keptRecord(31, 7, 100)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(at(0), at(4)); got != hist {
		t.Fatal("frames-only token changed on an out-of-range append")
	}
	if got := s.Version(time.Time{}, time.Time{}); got == full {
		t.Fatal("full-history token survived an append")
	}
	if got := s.Version(at(30), time.Time{}); got == tailRange {
		t.Fatal("tail-range token survived an in-range append")
	}

	// An append that grows the tail INTO the historical range must move
	// its token even though the frame set is unchanged.
	histBefore := s.Version(at(0), at(4))
	if err := s.Append([]netflow.Record{keptRecord(2, 8, 100)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(at(0), at(4)); got == histBefore {
		t.Fatal("token missed the tail growing into a frames-only range")
	}

	// A checkpoint changes the frame set: every token moves.
	histBefore = s.Version(at(0), at(4))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(at(0), at(4)); got == histBefore {
		t.Fatal("token survived a checkpoint")
	}

	// A reopened store never reuses a token (boot nonce).
	histBefore = s.Version(at(0), at(4))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := s2.Version(at(0), at(4)); got == histBefore {
		t.Fatal("token survived a restart")
	}
}

func TestQueryFullRangeMatchesSnapshot(t *testing.T) {
	s, ref := buildQueryStore(t, t.TempDir())
	defer s.Close()
	res, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 3 || !res.TailIncluded {
		t.Fatalf("full range merged %d frames, tail %v", res.Frames, res.TailIncluded)
	}
	if got, want := snapJSON(t, res.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatalf("full-range query:\n got %s\nwant %s", got, want)
	}
	if got, want := snapJSON(t, s.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatal("store snapshot diverges from reference")
	}
}

func TestQuerySelectsOverlappingFrames(t *testing.T) {
	s, _ := buildQueryStore(t, t.TempDir())
	defer s.Close()

	// Hours [10, 14): only the second frame has kept hours there.
	res, err := s.Query(at(10), at(14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 1 || res.TailIncluded {
		t.Fatalf("range [10,14) merged %d frames, tail %v", res.Frames, res.TailIncluded)
	}
	if len(res.Snapshot().Hours) != 4 {
		t.Fatalf("hours in range: %d, want 4", len(res.Snapshot().Hours))
	}
	for i, p := range res.Snapshot().Hours {
		if p.Hour != 10+i || p.Flows != 1 {
			t.Fatalf("hour %d: %+v", i, p)
		}
	}
	// The hour series is range-exact even though the frame covers more.
	if res.Snapshot().SeriesStart != 10 {
		t.Fatalf("series start %d, want 10", res.Snapshot().SeriesStart)
	}

	// Hours [12, 22): two frames overlap.
	res, err = s.Query(at(12), at(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 2 {
		t.Fatalf("range [12,22) merged %d frames, want 2", res.Frames)
	}
	wantHours := []int{12, 13, 20, 21}
	gotHours := make([]int, 0, len(res.Snapshot().Hours))
	for _, p := range res.Snapshot().Hours {
		if p.Flows > 0 {
			gotHours = append(gotHours, p.Hour)
		}
	}
	if len(gotHours) != len(wantHours) {
		t.Fatalf("populated hours %v, want %v", gotHours, wantHours)
	}
	for i := range wantHours {
		if gotHours[i] != wantHours[i] {
			t.Fatalf("populated hours %v, want %v", gotHours, wantHours)
		}
	}

	// An open 'from' with a bounded 'to'.
	res, err = s.Query(time.Time{}, at(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 1 || len(res.Snapshot().Hours) != 4 || res.TailIncluded {
		t.Fatalf("range [origin,4): frames=%d hours=%d tail=%v", res.Frames, len(res.Snapshot().Hours), res.TailIncluded)
	}

	// The tail is served like a frame for fresh hours.
	res, err = s.Query(at(30), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 0 || !res.TailIncluded || len(res.Snapshot().Hours) != 2 {
		t.Fatalf("tail range: frames=%d tail=%v hours=%d", res.Frames, res.TailIncluded, len(res.Snapshot().Hours))
	}

	// A range with no coverage at all is empty, not an error.
	res, err = s.Query(at(40), at(44))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshot().Hours) != 0 || res.Frames != 0 || res.TailIncluded {
		t.Fatalf("empty range: %+v", res)
	}
}

// TestQueryWiderThanLiveWindow pins the store's core promise: history
// stays queryable after the live sliding window slid past it. A
// 6-hour-window collector captures 21 hours with periodic checkpoints;
// the full-range query must return every populated hour even though the
// live snapshot only retains the trailing window.
func TestQueryWiderThanLiveWindow(t *testing.T) {
	cfg := streaming.Config{WindowHours: 6, TopK: 5}
	s := mustOpen(t, t.TempDir(), Options{Analytics: cfg})
	defer s.Close()
	for h := 0; h <= 20; h++ {
		if err := s.Append([]netflow.Record{keptRecord(h, h, uint64(100+h))}); err != nil {
			t.Fatal(err)
		}
		if h%4 == 3 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	res, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for _, p := range res.Snapshot().Hours {
		if p.Flows > 0 {
			populated++
		}
	}
	if res.Snapshot().SeriesStart != 0 || populated != 21 {
		t.Fatalf("full-range query over a slid window: start=%d populated=%d, want 0/21",
			res.Snapshot().SeriesStart, populated)
	}
	// A mid-history sub-range that the live window has long evicted.
	sub, err := s.Query(at(4), at(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Snapshot().Hours) != 6 || sub.Snapshot().SeriesStart != 4 {
		t.Fatalf("evicted-range query: start=%d hours=%d, want 4/6",
			sub.Snapshot().SeriesStart, len(sub.Snapshot().Hours))
	}
	// The live snapshot, by contrast, only holds the trailing window.
	if live := s.Snapshot(); len(live.Hours) > 6 {
		t.Fatalf("live snapshot holds %d hours, window is 6", len(live.Hours))
	}
}

// TestQueryIndependentOfCheckpointPlacement pins the commutativity
// property: the same records with different checkpoint boundaries (or
// none at all) answer a full-range query identically.
func TestQueryIndependentOfCheckpointPlacement(t *testing.T) {
	records := make([][]netflow.Record, 0, 24)
	for h := 0; h < 24; h++ {
		records = append(records, []netflow.Record{
			keptRecord(h, h, uint64(50+h)),
			droppedRecord(h, 200+h),
		})
	}
	build := func(ckptAfter map[int]bool) string {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		for i, batch := range records {
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			if ckptAfter[i] {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := s.Query(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		return snapJSON(t, res.Snapshot())
	}

	none := build(nil)
	every8 := build(map[int]bool{7: true, 15: true, 23: true})
	lopsided := build(map[int]bool{0: true, 20: true})
	if none != every8 || none != lopsided {
		t.Fatal("full-range query depends on checkpoint placement")
	}
}

// TestQueryDuringFoldKeepsNonOverlappingTail stages the mid-checkpoint
// shape directly: the in-flight fold's frozen state holds old in-range
// hours while the live tail has already moved far past the queried range. Merging the
// live pair must not let the newer (non-overlapping) tail bins slide a
// span-sized window over the in-range bins — the range is served from
// memory even though no frame holds it yet.
func TestQueryDuringFoldKeepsNonOverlappingTail(t *testing.T) {
	cfg := streaming.Config{WindowHours: 4, TopK: 5}
	s := mustOpen(t, t.TempDir(), Options{Analytics: cfg})
	defer s.Close()

	fold := s.newTail()
	for h := 0; h < 3; h++ {
		fold.Ingest([]netflow.Record{keptRecord(h, h, 100)})
	}
	minH, maxH := tailHours(fold)
	s.mu.Lock()
	s.folding = &frameMeta{Meta: tier.Meta{MinHour: minH, MaxHour: maxH}, Records: 3}
	s.foldingState = fold.Detach(time.Time{}, time.Time{})
	s.mu.Unlock()
	for h := 20; h < 23; h++ {
		if err := s.Append([]netflow.Record{keptRecord(h, h, 100)}); err != nil {
			t.Fatal(err)
		}
	}

	res, err := s.Query(entime.StudyStart, entime.StudyStart.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TailIncluded {
		t.Fatal("live state not included")
	}
	snap := res.Snapshot()
	if len(snap.Hours) != 4 || snap.SeriesStart != 0 {
		t.Fatalf("range window [%d +%d], want [0 +4]", snap.SeriesStart, len(snap.Hours))
	}
	for _, p := range snap.Hours {
		want := 1.0
		if p.Hour == 3 {
			want = 0 // in-range but never populated
		}
		if p.Flows != want {
			t.Fatalf("hour %d holds %v flows, want %v (non-overlapping tail evicted the range)", p.Hour, p.Flows, want)
		}
	}

	s.mu.Lock()
	s.folding, s.foldingState = nil, nil
	s.mu.Unlock()
}

// TestSnapshotBeyondWindow holds the snapshot — the hour query over all
// of history, folded to the window — to a ring at the window that saw the
// same records in time order, once history outgrows -window-hours: ten
// days of checkpoints at a 48-hour window, a live tail that reaches past
// them, and records that come days late into frames and tail alike. The
// rendering and the state a router is shipped are the bytes of that
// ring's, a late record counts nothing late however far behind it came,
// and the same holds again after a reopen.
func TestSnapshotBeyondWindow(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	var all []netflow.Record
	for day := 0; day < 10; day++ {
		batch := []netflow.Record{keptRecord(day*24+3, day, 500), keptRecord(day*24+20, 7, 900)}
		if day > 3 {
			batch = append(batch, keptRecord((day-3)*24, 9, 100)) // days behind the newest
		}
		all = append(all, batch...)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tail := []netflow.Record{keptRecord(10*24+5, 1, 300), keptRecord(10*24+30, 2, 300), keptRecord(9*24, 3, 100), keptRecord(2*24, 4, 100)}
	if err := s.Append(tail); err != nil {
		t.Fatal(err)
	}
	all = append(all, tail...)
	slices.SortStableFunc(all, func(a, b netflow.Record) int { return a.First.Compare(b.First) })
	check := func(s *Store) {
		t.Helper()
		ring := streaming.New(s.cfg)
		ring.Ingest(all)
		want := ring.Snapshot()
		res, err := s.SnapshotResult()
		if err != nil {
			t.Fatal(err)
		}
		got := res.Snapshot()
		if got.Late != 0 || got.SeriesStart != 10*24+30-47 || len(got.Hours) != 48 {
			t.Fatalf("late %d, series [%d +%d): the window did not slide over the history", got.Late, got.SeriesStart, len(got.Hours))
		}
		if res.Version == 0 {
			t.Fatal("snapshot carries no Version")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot\n%+v\nthe ring\n%+v", got, want)
		}
		st, origin := res.State()
		state, err := st.AppendBinary(nil, origin)
		if err != nil {
			t.Fatal(err)
		}
		if ringState, _ := streaming.FromSnapshot(want).MarshalBinary(); !bytes.Equal(state, ringState) {
			t.Fatalf("state of %d bytes, the ring's rendering encodes to other %d", len(state), len(ringState))
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	check(s)
}

// TestSnapshotHoldsLockForItsCutOnly pins who waits for a snapshot. The
// append lock is held for the cut — the frame lists, the detached tails,
// the Version — and not for the fold: with a cut taken and its fold still
// to come, an Append goes through, and the fold then renders the cut, not
// the append. And what the cut costs does not grow with the history: the
// bytes it allocates are the same over a month and over a year of frames,
// while the whole snapshot's grow with the window they fill.
func TestSnapshotHoldsLockForItsCutOnly(t *testing.T) {
	build := func(days int) *Store {
		s := mustOpen(t, t.TempDir(), Options{Analytics: streaming.Config{WindowHours: 366 * 24, TopK: 5}})
		t.Cleanup(func() { s.Close() })
		for day := 0; day < days; day++ {
			if err := s.Append([]netflow.Record{keptRecord(day*24+3, day, 500), keptRecord(day*24+20, 7, 900)}); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append([]netflow.Record{keptRecord(days*24, 1, 300)}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build(30)
	before := snapJSON(t, s.Snapshot())
	c := s.cut(time.Time{}, time.Time{})
	done := make(chan error, 1)
	go func() { done <- s.Append([]netflow.Record{keptRecord(30*24+1, 2, 300)}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an Append waits for a snapshot that has taken its cut")
	}
	res, err := s.tryQuery(c, time.Time{}, time.Time{}, tier.ResolutionHour, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapJSON(t, res.Snapshot()); got != before {
		t.Fatalf("the fold of a cut renders\n%s\nwant the state as of the cut\n%s", got, before)
	}
	if after, err := s.SnapshotResult(); err != nil || after.Version == c.version || snapJSON(t, after.Snapshot()) == before {
		t.Fatalf("the append is not in the next snapshot, or under the cut's Version (err %v)", err)
	}

	bytesPer := func(fn func()) uint64 {
		least := ^uint64(0)
		for pass := 0; pass < 3; pass++ { // strays only ever add
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 16; i++ {
				fn()
			}
			runtime.ReadMemStats(&m1)
			least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/16)
		}
		return least
	}
	var cut, whole []uint64
	for _, days := range []int{30, 120, 360} {
		s := build(days)
		cut = append(cut, bytesPer(func() { s.cut(time.Time{}, time.Time{}) }))
		whole = append(whole, bytesPer(func() { s.Snapshot() }))
	}
	t.Logf("bytes per snapshot over 30 / 120 / 360 days of frames: under the lock %v, in all %v", cut, whole)
	if lo, hi := min(cut[0], cut[1], cut[2]), max(cut[0], cut[1], cut[2]); (hi-lo)*20 > lo {
		t.Errorf("the cut allocates %v bytes at the three history lengths: want within 5%% of each other", cut)
	}
	if whole[2] < 4*whole[0] || cut[2]*10 > whole[2] {
		t.Errorf("a snapshot allocates %v bytes in all and %v under the lock: want the first to grow with the history and the second under a tenth of it", whole, cut)
	}
}

// TestSnapshotRetriesACompactedFrame stages the race a snapshot shares
// with every query: its cut names frames that a compaction then folds
// into one and removes before they are read (the checkpoint's sweep has
// dropped them from the frame cache). Folding that cut reads
// os.ErrNotExist, and SnapshotResult, which retries on a fresh cut,
// answers what a store that never compacted answers.
func TestSnapshotRetriesACompactedFrame(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxFrames: 4})
	defer s.Close()
	ref := mustOpen(t, t.TempDir(), Options{})
	defer ref.Close()
	for day := 0; day < 5; day++ {
		fillDay(t, ref, day)
	}
	for day := 0; day < 4; day++ {
		fillDay(t, s, day)
	}
	c := s.cut(time.Time{}, time.Time{})
	fillDay(t, s, 4)
	// Five frames past a bound of four: the four closed days fold into
	// one, which leaves half the bound.
	if m := s.Metrics(); m.Frames != 2 || m.CompactedFrames != 1 {
		t.Fatalf("%d frames, %d compactions: the oldest run did not compact", m.Frames, m.CompactedFrames)
	}
	if _, err := s.tryQuery(c, time.Time{}, time.Time{}, tier.ResolutionHour, true); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("folding a cut whose frames compaction removed: err %v, want os.ErrNotExist", err)
	}
	got, err := s.SnapshotResult()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SnapshotResult()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := answerOf(t, got), answerOf(t, want); a != b {
		t.Fatalf("after the compaction the snapshot answers\n%q\nthe uncompacted store\n%q", a, b)
	}
}
