package store

// Store-level tests of the long-horizon tier layer: fold scheduling on
// checkpoint, level-walk day/week answers against exact raw
// recomputation, byte-identical folds across batch interleavings,
// crash/reopen survival, the obsolete-duplicate sweeps and the
// compaction straddle guard and fold order.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/tier"
)

// fillDay appends one day's worth of deterministic traffic (three busy
// hours, a rotating client population, one dropped record) and
// checkpoints, so each day becomes exactly one raw checkpoint frame.
func fillDay(t *testing.T, s *Store, day int) {
	t.Helper()
	var batch []netflow.Record
	for _, h := range []int{0, 5, 10} {
		hour := day*24 + h
		for c := 0; c < 5; c++ {
			// Overlapping client sets across days, each client in its
			// own /24 (keptRecord puts client>>8 in the third octet).
			client := (day*3 + c) * 256
			batch = append(batch, keptRecord(hour, client, uint64(100+10*c)))
		}
	}
	batch = append(batch, droppedRecord(day*24, day))
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// exactBuckets aggregates the exact hourly series of a raw full-range
// query into width-aligned buckets — the reference the tier answers
// must match bucket for bucket.
func exactBuckets(t *testing.T, s *Store, width int64) map[int64][2]float64 {
	t.Helper()
	raw, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64][2]float64{}
	for _, p := range raw.Snapshot().Hours {
		if p.Flows == 0 && p.Bytes == 0 {
			continue
		}
		start := int64(p.Hour) - int64(p.Hour)%width
		b := out[start]
		out[start] = [2]float64{b[0] + p.Flows, b[1] + p.Bytes}
	}
	return out
}

func checkAnswerExact(t *testing.T, s *Store, r *QueryResult, res tier.Resolution) {
	t.Helper()
	ans := r.LongHorizon
	if ans == nil || r.Resolution != res {
		t.Fatalf("resolution %s: got resolution %q, long_horizon %v", res, r.Resolution, ans != nil)
	}
	if !ans.Approximate {
		t.Fatal("tiered answers must be flagged approximate")
	}
	raw, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Census.Total != raw.Snapshot().Census.Total || ans.Census.Kept != raw.Snapshot().Census.Kept {
		t.Fatalf("census diverges from exact: got %+v want %+v", ans.Census, raw.Snapshot().Census)
	}
	for reason, n := range raw.Snapshot().Census.Dropped {
		if ans.Census.Dropped[reason] != n {
			t.Fatalf("dropped[%v] = %d, want %d", reason, ans.Census.Dropped[reason], n)
		}
	}
	want := exactBuckets(t, s, int64(res.Level().BucketHours()))
	if len(ans.Buckets) != len(want) {
		t.Fatalf("%d buckets, want %d", len(ans.Buckets), len(want))
	}
	for _, b := range ans.Buckets {
		w, ok := want[b.StartHour]
		if !ok || b.Flows != w[0] || b.Bytes != w[1] {
			t.Fatalf("bucket %d = {%v %v}, want %v", b.StartHour, b.Flows, b.Bytes, w)
		}
	}
	// District rollups are exact sums too.
	wantD := map[string]uint64{}
	for _, d := range raw.Snapshot().Districts {
		wantD[d.ID] = d.Flows
	}
	if len(ans.Districts) != len(wantD) {
		t.Fatalf("%d districts, want %d", len(ans.Districts), len(wantD))
	}
	for _, d := range ans.Districts {
		if wantD[d.ID] != d.Flows {
			t.Fatalf("district %s = %d, want %d", d.ID, d.Flows, wantD[d.ID])
		}
	}
}

func TestTierFoldOnCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const days = 10
	for d := 0; d < days; d++ {
		fillDay(t, s, d)
	}
	// Each checkpoint closes the previous day's run; the trailing day
	// stays open as the raw residual.
	m := s.Metrics()
	if m.TierFramesDay != days-1 {
		t.Fatalf("%d day frames, want %d", m.TierFramesDay, days-1)
	}
	if m.TierFramesWeek != 1 {
		t.Fatalf("%d week frames, want 1 (days 0-6 closed by day 7)", m.TierFramesWeek)
	}
	if m.TierFolds != uint64(days-1+1) {
		t.Fatalf("TierFolds = %d, want %d", m.TierFolds, days-1+1)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "tier-d-*.tf"))
	if len(files) != days-1 {
		t.Fatalf("%d tier-d files on disk, want %d", len(files), days-1)
	}

	rd, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswerExact(t, s, rd, tier.ResolutionDay)
	if rd.LongHorizon.TierFrames != days-1 {
		t.Fatalf("day answer merged %d tier frames, want %d", rd.LongHorizon.TierFrames, days-1)
	}
	rw, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionWeek)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswerExact(t, s, rw, tier.ResolutionWeek)
	// Week answer: 1 week frame (days 0-6) + day frames beyond week
	// coverage (days 7, 8).
	if rw.LongHorizon.TierFrames != 3 {
		t.Fatalf("week answer merged %d tier frames, want 3", rw.LongHorizon.TierFrames)
	}

	// Distinct prefixes: HLL small-range estimates must stay within the
	// pinned bound of the exact distinct count.
	exact := map[int]bool{}
	for d := 0; d < days; d++ {
		for c := 0; c < 5; c++ {
			exact[d*3+c] = true
		}
	}
	got, want := float64(rd.LongHorizon.DistinctPrefixes), float64(len(exact))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("distinct prefixes %v, exact %v (>5%% off)", got, want)
	}

	// Hour resolution must be the untouched exact path.
	rh, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionHour)
	if err != nil {
		t.Fatal(err)
	}
	if rh.LongHorizon != nil || rh.Resolution != "" {
		t.Fatal("hour resolution must not produce a long-horizon block")
	}
	raw, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if snapJSON(t, rh) != snapJSON(t, raw) {
		t.Fatal("hour-resolution answer diverges from Query")
	}

	// Auto resolution resolves from the span: 10 days of history with
	// open bounds → day.
	ra, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Resolution != tier.ResolutionDay {
		t.Fatalf("auto over 10 days resolved to %q, want day", ra.Resolution)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTierFoldDeterministicAcrossBatching(t *testing.T) {
	// Same records, same checkpoint boundaries, different batch splits
	// (one batch per day vs one batch per record, reversed) — the
	// commutativity the ingest workers rely on. Tier frame files must be
	// byte-identical.
	build := func(dir string, perRecord bool) {
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		for d := 0; d < 5; d++ {
			var batch []netflow.Record
			for _, h := range []int{2, 7} {
				for c := 0; c < 4; c++ {
					batch = append(batch, keptRecord(d*24+h, d+c, uint64(50+c)))
				}
			}
			if perRecord {
				for i := len(batch) - 1; i >= 0; i-- {
					if err := s.Append(batch[i : i+1]); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	build(dirA, false)
	build(dirB, true)
	filesA, _ := filepath.Glob(filepath.Join(dirA, "tier-*.tf"))
	if len(filesA) == 0 {
		t.Fatal("no tier frames produced")
	}
	for _, fa := range filesA {
		fb := filepath.Join(dirB, filepath.Base(fa))
		a, err := os.ReadFile(fa)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(fb)
		if err != nil {
			t.Fatalf("tier frame missing under per-record batching: %v", err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs across batch interleavings", filepath.Base(fa))
		}
	}
}

func TestTierCrashReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for d := 0; d < 9; d++ {
		fillDay(t, s, d)
	}
	before, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionWeek)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := snapJSON(t, before)
	nDay, nWeek := s.Metrics().TierFramesDay, s.Metrics().TierFramesWeek
	// Abandon without Close — the SIGKILL shape (no flush, no seal).
	releaseDirLock(s.lock)

	s2 := mustOpen(t, dir, Options{})
	m := s2.Metrics()
	if m.TierFramesDay != nDay || m.TierFramesWeek != nWeek {
		t.Fatalf("reopen lost tier frames: %d/%d, want %d/%d", m.TierFramesDay, m.TierFramesWeek, nDay, nWeek)
	}
	after, err := s2.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionWeek)
	if err != nil {
		t.Fatal(err)
	}
	if snapJSON(t, after) != wantJSON {
		t.Fatal("week-resolution answer changed across crash/reopen")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A read-only open serves tiered queries too (folding disabled, but
	// existing frames load).
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	r, err := ro.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	if r.LongHorizon == nil || r.LongHorizon.TierFrames == 0 {
		t.Fatal("read-only open did not serve tier frames")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTierObsoleteSweep(t *testing.T) {
	// A crashed refold leaves a newer frame containing an older one's
	// WAL interval; Open must keep the newer frame and sweep the older,
	// mirroring the checkpoint containment sweep.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for d := 0; d < 4; d++ {
		fillDay(t, s, d)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "tier-d-*.tf"))
	if len(files) < 2 {
		t.Fatalf("want ≥2 day frames, got %d", len(files))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the "newer containing frame": re-encode the first day
	// frame under a fresh, higher seq with the same coverage.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := tier.DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	f.Seq = 1000
	dup := framePath(dir, tier.LevelDay, f.Seq)
	if err := os.WriteFile(dup, tier.EncodeFrame(f), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("contained older frame %s not swept", filepath.Base(files[0]))
	}
	if _, err := os.Stat(dup); err != nil {
		t.Fatalf("containing frame swept instead: %v", err)
	}
	if got, want := s2.Metrics().TierFramesDay, len(files); got != want {
		t.Fatalf("%d day frames after sweep, want %d", got, want)
	}
	r, err := s2.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswerExact(t, s2, r, tier.ResolutionDay)
}

// TestDamagedTierFrameIsFoldedAgain flips one byte of a day frame of a
// four-day store. Day frames are derived from checkpoint frames that are
// still on disk, so neither open fails: a read-only one answers a day
// query from the checkpoint frames, with the buckets, census and districts
// of an undamaged twin, and a writable one removes the day frames and
// folds them again at its next checkpoint, after which it answers the day
// query as the twin does, byte for byte.
func TestDamagedTierFrameIsFoldedAgain(t *testing.T) {
	cfg := locatingConfig(t, 20)
	dir, twinDir := t.TempDir(), t.TempDir()
	for _, d := range []string{dir, twinDir} {
		s := mustOpen(t, d, Options{Analytics: cfg})
		for day := 0; day < 4; day++ {
			fillDay(t, s, day)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	damaged := framePath(dir, tier.LevelDay, 7)
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.DecodeFrame(data); !errors.Is(err, tier.ErrCorrupt) || strings.Count(err.Error(), "corrupt") != 1 {
		t.Fatalf("the damaged frame reads as %v: want tier.ErrCorrupt, named once", err)
	}
	dayAnswer := func(dir string, readOnly bool) (*Store, *QueryResult) {
		t.Helper()
		s, err := Open(dir, Options{Analytics: cfg, ReadOnly: readOnly})
		if err != nil {
			t.Fatalf("open (read-only %v): %v", readOnly, err)
		}
		r, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
		if err != nil {
			t.Fatal(err)
		}
		return s, r
	}

	twin, want := dayAnswer(twinDir, true)
	twin.Close()
	ro, got := dayAnswer(dir, true)
	ro.Close()
	if got.LongHorizon.TierFrames != 0 {
		t.Fatalf("the read-only open answered from %d tier frames, want none", got.LongHorizon.TierFrames)
	}
	if len(want.LongHorizon.Districts) == 0 {
		t.Fatal("the twin's answer has no districts to compare")
	}
	for _, part := range []func(a *tier.Answer) any{
		func(a *tier.Answer) any { return a.Buckets },
		func(a *tier.Answer) any { return a.Census },
		func(a *tier.Answer) any { return a.Districts },
	} {
		if a, b := snapJSON(t, part(got.LongHorizon)), snapJSON(t, part(want.LongHorizon)); a != b {
			t.Fatalf("the read-only open answers\n%s\nthe undamaged twin\n%s", a, b)
		}
	}

	for _, d := range []string{dir, twinDir} {
		s := mustOpen(t, d, Options{Analytics: cfg})
		fillDay(t, s, 4)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "tier-d-*.tf")); len(files) != 4 {
		t.Fatalf("%d day frames after the next checkpoint, want the four closed days", len(files))
	}
	s, got := dayAnswer(dir, false)
	defer s.Close()
	twin, want = dayAnswer(twinDir, false)
	defer twin.Close()
	if a, b := answerOf(t, got), answerOf(t, want); a != b {
		t.Fatalf("after the refold the store answers\n%q\nthe undamaged twin\n%q", a, b)
	}
}

func TestCompactionStraddleGuard(t *testing.T) {
	// A tight frame budget forces compaction every checkpoint; the guard
	// must never let a merged raw frame straddle the day-tier coverage
	// horizon, and tiered answers must stay exact throughout.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxFrames: 2})
	defer s.Close()
	for d := 0; d < 8; d++ {
		fillDay(t, s, d)
		s.mu.Lock()
		covered := horizon(s.levels[tier.LevelDay])
		for _, fr := range s.levels[tier.LevelCheckpoint] {
			if fr.BaseSeg < covered && covered < fr.CoveredSeg {
				s.mu.Unlock()
				t.Fatalf("day %d: raw frame (%d,%d] straddles tier horizon %d", d, fr.BaseSeg, fr.CoveredSeg, covered)
			}
		}
		s.mu.Unlock()
	}
	r, err := s.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswerExact(t, s, r, tier.ResolutionDay)
}

// TestTierFoldsBeforeCompaction pins the order a checkpoint runs its two
// folds in: the day tier first, then compaction. With six checkpoints a
// day and a bound of four frames, compaction runs every few checkpoints;
// run first, it could join the frames of a day that has just closed with
// the next day's into one frame, which the day fold then takes whole.
// Every day frame holds the hours of one day, and no day answer over
// whole days holds a bucket at or past its end.
func TestTierFoldsBeforeCompaction(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxFrames: 4})
	defer s.Close()
	for d := 0; d < 12; d++ {
		for h := 0; h < 24; h += 4 {
			if err := s.Append([]netflow.Record{keptRecord(d*24+h, d*8+h/4, 100)}); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := s.Metrics(); m.CompactedFrames == 0 || m.TierFramesDay < 10 {
		t.Fatalf("%d compactions, %d day frames: the fixture exercises neither fold", m.CompactedFrames, m.TierFramesDay)
	}
	s.mu.Lock()
	days := append([]frameMeta(nil), s.levels[tier.LevelDay]...)
	s.mu.Unlock()
	for _, fm := range days {
		if fm.MinHour/24 != fm.MaxHour/24 {
			t.Errorf("day frame %d holds hours [%d, %d]: more than one day", fm.Seq, fm.MinHour, fm.MaxHour)
		}
	}
	for d := 1; d <= 10; d++ {
		r, err := s.QueryResolution(at(0), at(24*d), tier.ResolutionDay)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range r.LongHorizon.Buckets {
			if b.StartHour >= int64(24*d) {
				t.Errorf("days [0, %d): a bucket at hour %d", d, b.StartHour)
			}
		}
	}
}

// TestCompactionLeftoversAreSwept stages a crash between a compaction's
// write and its removes: the run of four frames it folded is put back
// beside the merged frame. A reopen keeps the merged frame, removes every
// input and answers every resolution as the store did before.
func TestCompactionLeftoversAreSwept(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxFrames: 4})
	for d := 0; d < 4; d++ {
		fillDay(t, s, d)
	}
	inputs := map[string][]byte{}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs[f] = data
	}
	fillDay(t, s, 4)
	answers := func(s *Store) (out []string) {
		for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay, tier.ResolutionWeek} {
			r, err := s.QueryResolution(time.Time{}, time.Time{}, res)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answerOf(t, r))
		}
		return out
	}
	want := answers(s)
	if m := s.Metrics(); m.Frames != 2 || m.CompactedFrames != 1 || len(inputs) != 4 {
		t.Fatalf("%d frames, %d compactions of %d frames: want the four oldest folded into one", m.Frames, m.CompactedFrames, len(inputs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for f, data := range inputs {
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if m := r.Metrics(); m.RecoveredFrames != 2 {
		t.Fatalf("reopen recovered %d frames, want the merged one and the newest", m.RecoveredFrames)
	}
	for f := range inputs {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("compacted input %s not swept: %v", filepath.Base(f), err)
		}
	}
	if got := answers(r); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopened store answers differently from the one that compacted")
	}
}

// TestTierRangeQueryBuckets pins partial-range behaviour: bucket series
// are trimmed to overlapping frames, and the residual snapshot stays
// hour-exact inside the range.
func TestTierRangeQueryBuckets(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	for d := 0; d < 6; d++ {
		fillDay(t, s, d)
	}
	from := entime.StudyStart.Add(2 * 24 * time.Hour)
	to := entime.StudyStart.Add(4 * 24 * time.Hour)
	r, err := s.QueryResolution(from, to, tier.ResolutionDay)
	if err != nil {
		t.Fatal(err)
	}
	if r.LongHorizon == nil {
		t.Fatal("no long-horizon block")
	}
	// Days 2 and 3 overlap; each contributes its exact bucket.
	want := map[int64]bool{48: true, 72: true}
	for _, b := range r.LongHorizon.Buckets {
		if !want[b.StartHour] {
			t.Fatalf("unexpected bucket at hour %d", b.StartHour)
		}
		delete(want, b.StartHour)
	}
	if len(want) != 0 {
		t.Fatalf("missing buckets: %v", want)
	}
	// Exact per-day flow count: 3 busy hours × 5 clients.
	for _, b := range r.LongHorizon.Buckets {
		if b.Flows != 15 {
			t.Fatalf("bucket %d flows %v, want 15", b.StartHour, b.Flows)
		}
	}
}

// TestHourAnswerIgnoresTierFrames pins the one way the unified query
// path could go wrong at hour resolution: applying the raw floor, which
// would drop every raw frame a day or week frame covers. On a store with
// folded day and week frames the hour answer equals, field for field,
// that of the same history with its tier files deleted, over open,
// closed, frames-only and tail-only ranges. Both are opened read-only, so
// they build their prefix tables in one order.
func TestHourAnswerIgnoresTierFrames(t *testing.T) {
	tieredDir, plainDir := t.TempDir(), t.TempDir()
	const days = 10
	for _, dir := range []string{tieredDir, plainDir} {
		s := mustOpen(t, dir, Options{})
		for d := 0; d < days; d++ {
			fillDay(t, s, d)
		}
		if err := s.Append([]netflow.Record{keptRecord(days*24+2, 7, 300), droppedRecord(days*24+2, 8)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(plainDir, "tier-*.tf"))
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	tiered := mustOpen(t, tieredDir, Options{ReadOnly: true})
	defer tiered.Close()
	plain := mustOpen(t, plainDir, Options{ReadOnly: true})
	defer plain.Close()
	if m := tiered.Metrics(); m.TierFramesDay == 0 || m.TierFramesWeek == 0 {
		t.Fatalf("fixture folded %d day and %d week frames, want some of each", m.TierFramesDay, m.TierFramesWeek)
	}
	if m := plain.Metrics(); m.TierFramesDay+m.TierFramesWeek != 0 {
		t.Fatal("the reference store has tier frames")
	}
	day := func(d int) time.Time { return entime.StudyStart.Add(time.Duration(d) * 24 * time.Hour) }
	for name, r := range map[string][2]time.Time{
		"open":        {},
		"closed":      {day(2), day(4)},
		"frames-only": {{}, day(days)},
		"tail-only":   {day(days), {}},
	} {
		for _, res := range []tier.Resolution{"", tier.ResolutionHour} {
			got, err := tiered.QueryResolution(r[0], r[1], res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.QueryResolution(r[0], r[1], res)
			if err != nil {
				t.Fatal(err)
			}
			got.Version, want.Version = 0, 0 // boot nonces differ
			if want.Frames == 0 && !want.TailIncluded {
				t.Fatalf("%s: the reference answer is empty", name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at resolution %q: hour answer differs on the store with tier frames:\n got %+v\nwant %+v", name, res, got, want)
			}
		}
	}
}
