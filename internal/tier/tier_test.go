package tier

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/netflow"
	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
)

func testCfg() streaming.Config {
	return streaming.Config{WindowHours: 48, TopK: 3, Archive: true}
}

// keptRecord fabricates a record the paper's filter keeps, landing in
// hour h with client /24 number c.
func keptRecord(h, c int, byteCount uint64) netflow.Record {
	f := core.DefaultFilter()
	at := entime.StudyStart.Add(time.Duration(h) * time.Hour)
	return netflow.Record{
		Key: netflow.Key{
			Src:     f.ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{100, 64, byte(c), 1}),
			SrcPort: netflow.PortHTTPS,
			DstPort: 50000,
			Proto:   netflow.ProtoTCP,
		},
		Packets:  5,
		Bytes:    byteCount,
		First:    at,
		Last:     at.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

// droppedRecord fabricates a record the filter rejects (wrong protocol).
func droppedRecord(h int) netflow.Record {
	r := keptRecord(h, 0, 1)
	r.Proto = 17
	return r
}

// shard builds one archive analytics shard from records.
func shard(recs ...netflow.Record) *streaming.Analytics {
	a := streaming.New(testCfg())
	a.Ingest(recs)
	return a
}

// input wraps a shard as a fold input covering WAL interval (seg, seg+1]
// with the given hour bounds.
func input(seg uint64, minHour, maxHour int64, state *streaming.Analytics) Input {
	return Input{
		Meta:  Meta{Seq: seg, BaseSeg: seg, CoveredSeg: seg + 1, MinHour: minHour, MaxHour: maxHour},
		State: state,
	}
}

func TestCloseRuns(t *testing.T) {
	metas := []Meta{
		{MinHour: 0, MaxHour: 0},
		{MinHour: 5, MaxHour: 6},
		{MinHour: -1, MaxHour: -1}, // accounting rides along
		{MinHour: 23, MaxHour: 24}, // spills past midnight; still day 0
		{MinHour: 25, MaxHour: 25}, // proves day 0 complete
		{MinHour: 26, MaxHour: 30},
		{MinHour: 49, MaxHour: 50}, // proves day 1 complete; itself open
	}
	got := CloseRuns(LevelDay, metas)
	want := [][2]int{{0, 4}, {4, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CloseRuns = %v, want %v", got, want)
	}

	// Leading accounting frames join the first run.
	metas2 := []Meta{{MinHour: -1, MaxHour: -1}, {MinHour: 3, MaxHour: 3}, {MinHour: 30, MaxHour: 31}}
	if got := CloseRuns(LevelDay, metas2); !reflect.DeepEqual(got, [][2]int{{0, 2}}) {
		t.Fatalf("CloseRuns with leading accounting = %v", got)
	}

	// No later period yet: everything stays open.
	if got := CloseRuns(LevelDay, metas[:4]); got != nil {
		t.Fatalf("open run folded: %v", got)
	}
}

func TestFoldRawExact(t *testing.T) {
	// Three hourly checkpoint frames: prefix 1 persists in all three,
	// prefixes 2 and 3 appear once each; hour 30 spills to a second day
	// bucket.
	inputs := []Input{
		input(0, 1, 1, shard(keptRecord(1, 1, 100), keptRecord(1, 2, 50), droppedRecord(1))),
		input(1, 5, 5, shard(keptRecord(5, 1, 10))),
		input(2, 5, 30, shard(keptRecord(5, 1, 10), keptRecord(30, 3, 70))),
	}
	f, err := FoldRaw(LevelDay, 99, testCfg(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 99 || f.Level != LevelDay || f.BaseSeg != 0 || f.CoveredSeg != 3 {
		t.Fatalf("frame identity: %+v", f)
	}
	if f.MinHour != 1 || f.MaxHour != 30 || f.Inputs != 3 {
		t.Fatalf("frame coverage: %+v", f)
	}
	if f.Total != 6 || f.Kept != 5 || f.Dropped[core.DropNotTCP] != 1 {
		t.Fatalf("census: total=%d kept=%d dropped=%v", f.Total, f.Kept, f.Dropped)
	}
	wantBuckets := []Bucket{
		{StartHour: 0, Flows: 4, Bytes: 170},
		{StartHour: 24, Flows: 1, Bytes: 70},
	}
	if !reflect.DeepEqual(f.Buckets, wantBuckets) {
		t.Fatalf("buckets = %+v, want %+v", f.Buckets, wantBuckets)
	}
	// Three distinct /24s: linear counting is exact at this range.
	if est := f.Prefixes.Estimate(); est != 3 {
		t.Fatalf("distinct prefixes = %d, want 3", est)
	}
	// Presence observations: prefix 1 in 3 frames, 2 and 3 in 1 each.
	sum := f.Presence.Summarize()
	if sum.Count != 3 || sum.Max != 3 || sum.P50 != 1 {
		t.Fatalf("presence = %+v", sum)
	}
}

// TestFoldDeterministic pins byte-identity across worker counts: input
// frames whose state was merged from sub-shards in different orders
// fold to identical bytes.
func TestFoldDeterministic(t *testing.T) {
	mk := func(flip bool) []byte {
		s1 := shard(keptRecord(2, 1, 100), keptRecord(3, 2, 10))
		s2 := shard(keptRecord(2, 3, 30), droppedRecord(4))
		m := streaming.New(testCfg())
		if flip {
			m.Merge(s2)
			m.Merge(s1)
		} else {
			m.Merge(s1)
			m.Merge(s2)
		}
		f, err := FoldRaw(LevelDay, 7, testCfg(), []Input{input(0, 2, 4, m)})
		if err != nil {
			t.Fatal(err)
		}
		return EncodeFrame(f)
	}
	if !bytes.Equal(mk(false), mk(true)) {
		t.Fatal("fold output depends on shard merge order")
	}
}

// TestAddShardCountsAGroupOnce pins the presence rule for states handed
// over in one call: they are one shard, as the store's two live tails
// are, so a prefix both hold is one observation of presence one; handed
// over apart, it is one observation of presence two.
func TestAddShardCountsAGroupOnce(t *testing.T) {
	a := shard(keptRecord(1, 1, 10), keptRecord(1, 2, 10)).Detach(time.Time{}, time.Time{})
	b := shard(keptRecord(2, 1, 10), keptRecord(2, 3, 10)).Detach(time.Time{}, time.Time{})
	answer := func(add func(acc *SketchAccum)) *Answer {
		acc := NewSketchAccum()
		add(acc)
		bl := NewBuilder(ResolutionDay, entime.StudyStart)
		bl.AddResidual(nil, acc, 0)
		return bl.Answer(nil)
	}
	grouped := answer(func(acc *SketchAccum) { acc.AddShard(a, b) })
	apart := answer(func(acc *SketchAccum) { acc.AddShard(a); acc.AddShard(b) })
	if grouped.Presence.Count != 3 || grouped.Presence.Max != 1 || grouped.DistinctPrefixes != 3 {
		t.Fatalf("one shard of two tables: presence %+v, %d distinct", grouped.Presence, grouped.DistinctPrefixes)
	}
	if apart.Presence.Count != 3 || apart.Presence.Max != 2 || apart.DistinctPrefixes != 3 {
		t.Fatalf("two shards: presence %+v, %d distinct", apart.Presence, apart.DistinctPrefixes)
	}
}

// foldWeek folds day frames into a week frame as the store does: a week
// builder adds each, and its Fold checks and renders the run.
func foldWeek(seq uint64, days ...*Frame) (*Frame, error) {
	b := NewBuilder(ResolutionWeek, time.Time{})
	metas := make([]Meta, len(days))
	for i, d := range days {
		b.AddFrame(d)
		metas[i] = d.Meta()
	}
	return b.Fold(seq, metas)
}

func TestFoldFramesWeek(t *testing.T) {
	mkDay := func(seq, base uint64, minHour int64) *Frame {
		f, err := FoldRaw(LevelDay, seq, testCfg(), []Input{
			input(base, minHour, minHour, shard(keptRecord(int(minHour), int(seq), 100))),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	d1 := mkDay(10, 0, 2)
	d2 := mkDay(11, 1, 26)
	w, err := foldWeek(20, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Level != LevelWeek || w.BaseSeg != 0 || w.CoveredSeg != 2 || w.Inputs != 2 {
		t.Fatalf("week identity: %+v", w)
	}
	if w.Kept != 2 || w.MinHour != 2 || w.MaxHour != 26 {
		t.Fatalf("week aggregates: %+v", w)
	}
	// Both day buckets fall in week bucket 0.
	if len(w.Buckets) != 1 || w.Buckets[0].StartHour != 0 || w.Buckets[0].Flows != 2 {
		t.Fatalf("week buckets = %+v", w.Buckets)
	}
	if est := w.Prefixes.Estimate(); est != 2 {
		t.Fatalf("week distinct prefixes = %d", est)
	}

	// A broken WAL chain must refuse to fold.
	d3 := mkDay(12, 5, 50)
	if _, err := foldWeek(21, d1, d3); err == nil {
		t.Fatal("fold across a WAL gap succeeded")
	}
	// Level mismatch must refuse too.
	if _, err := foldWeek(22, w); err == nil {
		t.Fatal("fold of week frame into week frame succeeded")
	}
}

func TestAutoSpan(t *testing.T) {
	base := entime.StudyStart
	cases := []struct {
		span time.Duration
		want Resolution
	}{
		{24 * time.Hour, ResolutionHour},
		{8 * 24 * time.Hour, ResolutionHour},
		{9 * 24 * time.Hour, ResolutionDay},
		{62 * 24 * time.Hour, ResolutionDay},
		{90 * 24 * time.Hour, ResolutionWeek},
		{366 * 24 * time.Hour, ResolutionWeek},
	}
	for _, c := range cases {
		if got := AutoSpan(base, base.Add(c.span), time.Time{}, time.Time{}); got != c.want {
			t.Errorf("AutoSpan(%v) = %v, want %v", c.span, got, c.want)
		}
	}
	// Open bounds fill from history.
	if got := AutoSpan(time.Time{}, time.Time{}, base, base.Add(365*24*time.Hour)); got != ResolutionWeek {
		t.Errorf("open-bound year = %v", got)
	}
	// Empty store: stay exact.
	if got := AutoSpan(time.Time{}, time.Time{}, time.Time{}, time.Time{}); got != ResolutionHour {
		t.Errorf("empty history = %v", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f, err := FoldRaw(LevelDay, 42, testCfg(), []Input{
		input(3, 1, 1, shard(keptRecord(1, 1, 100), keptRecord(1, 2, 50), droppedRecord(1))),
		input(4, 26, 26, shard(keptRecord(26, 1, 10))),
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeFrame(f)
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip changed frame:\n got %+v\nwant %+v", got, f)
	}
	if !bytes.Equal(EncodeFrame(got), enc) {
		t.Fatal("round trip changed bytes")
	}

}

// TestAnswerFrameMergesLikeTheWhole pins the cluster path: two shard
// answers shipped as frames (Builder.Frame through the wire codec) and
// folded with AddFrame equal one answer built from everything —
// including the estimates, because sketches merge where estimates
// cannot. Only the source count differs: the router sums the shards'
// own counts instead.
func TestAnswerFrameMergesLikeTheWhole(t *testing.T) {
	origin := entime.StudyStart
	mkFrame := func(seq, base uint64, h int64, clients ...int) *Frame {
		recs := make([]netflow.Record, 0, len(clients)+1)
		for _, c := range clients {
			recs = append(recs, keptRecord(int(h), c, 100))
		}
		recs = append(recs, droppedRecord(int(h)))
		f, err := FoldRaw(LevelDay, seq, testCfg(), []Input{input(base, h, h, shard(recs...))})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Overlapping prefix sets across "shards" — the case where summing
	// per-shard estimates would overcount.
	f1 := mkFrame(1, 0, 2, 1, 2, 3)
	f2 := mkFrame(2, 0, 30, 2, 3, 4)

	merged := NewBuilder(ResolutionDay, origin)
	for _, f := range []*Frame{f1, f2} {
		b := NewBuilder(ResolutionDay, origin)
		b.AddFrame(f)
		shipped, err := b.Frame(Meta{MinHour: -1, MaxHour: -1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFrame(EncodeFrame(shipped))
		if err != nil {
			t.Fatalf("shipped frame does not survive its own codec: %v", err)
		}
		merged.AddFrame(decoded)
	}

	whole := NewBuilder(ResolutionDay, origin)
	whole.AddFrame(f1)
	whole.AddFrame(f2)

	got, want := merged.Answer(nil), whole.Answer(nil)
	if got.DistinctPrefixes != 4 || len(got.Buckets) != 2 || got.Census.Total != 8 {
		t.Fatalf("merged answer: %d distinct prefixes, %d buckets, census total %d", got.DistinctPrefixes, len(got.Buckets), got.Census.Total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scatter-gather drift:\n got %+v\nwant %+v", got, want)
	}

	// Sums that cannot be a frame are an error, not bytes DecodeFrame will
	// refuse: a district id the codec's length byte cannot carry (the
	// answer, which has no such bound, still lists it), and a resolution
	// without a level.
	long := strings.Repeat("x", 300)
	whole.AddFrame(districtFrame(3, 50, District{long, 1}))
	if f, err := whole.Frame(Meta{MinHour: -1, MaxHour: -1}, 0); err == nil {
		_, err = DecodeFrame(EncodeFrame(f))
		t.Fatalf("a 300-byte district id rendered a frame (which decodes to: %v)", err)
	}
	if ans := whole.Answer(nil); ans.Districts[len(ans.Districts)-1].ID != long {
		t.Fatalf("the answer lost the long district id: %+v", ans.Districts)
	}
	if _, err := NewBuilder(ResolutionHour, origin).Frame(Meta{}, 0); err == nil {
		t.Fatal("hour resolution rendered a frame")
	}
}

// TestBuilderResidual pins the exact/approximate stitch: tier frame
// census plus residual snapshot census sum exactly, and residual
// prefixes reach the sketches.
func TestBuilderResidual(t *testing.T) {
	origin := entime.StudyStart
	f, err := FoldRaw(LevelDay, 1, testCfg(), []Input{
		input(0, 1, 1, shard(keptRecord(1, 1, 100), droppedRecord(1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	resid := shard(keptRecord(30, 1, 10), keptRecord(30, 9, 20))
	acc := NewSketchAccum()
	acc.AddShard(resid.Detach(time.Time{}, time.Time{}))

	b := NewBuilder(ResolutionDay, origin)
	b.AddFrame(f)
	b.AddResidual(streaming.Fold(testCfg(), time.Time{}, time.Time{}, resid.Detach(time.Time{}, time.Time{})), acc, 1)
	ans := b.Answer(nil)

	if ans.Census.Total != 4 || ans.Census.Kept != 3 {
		t.Fatalf("census = %+v", ans.Census)
	}
	if ans.TierFrames != 1 || ans.RawFrames != 1 {
		t.Fatalf("source counts: %+v", ans)
	}
	// Prefix 1 in both sources, prefix 9 residual-only: 2 distinct.
	if ans.DistinctPrefixes != 2 {
		t.Fatalf("distinct prefixes = %d, want 2", ans.DistinctPrefixes)
	}
	wantBuckets := []Bucket{
		{StartHour: 0, Time: origin, Flows: 1, Bytes: 100},
		{StartHour: 24, Time: origin.Add(24 * time.Hour), Flows: 2, Bytes: 30},
	}
	if !reflect.DeepEqual(ans.Buckets, wantBuckets) {
		t.Fatalf("buckets = %+v, want %+v", ans.Buckets, wantBuckets)
	}
	if !ans.Approximate {
		t.Fatal("tiered answer not flagged approximate")
	}
}

// districtFrame is a day frame that carries only a district rollup and
// one bucket at hour h.
func districtFrame(seq uint64, h int64, districts ...District) *Frame {
	return &Frame{Level: LevelDay, Seq: seq, MinHour: h, MaxHour: h, Dropped: make([]uint64, nReasons),
		Districts: districts, Buckets: []Bucket{{StartHour: h - h%24, Flows: 1, Bytes: 10}},
		Prefixes: sketch.NewHLL(), Presence: sketch.NewQuantile()}
}

// TestBuilderFoldsResolvedFramesLikeInternedOnes pins the fold by index
// to the answer the id-keyed fold gives: frames decoded (each id resolved
// once, off the bytes), the same frames built by hand (resolved as they are
// added) and a mix of both all render one district list — sorted by id
// with the model's districts and the ids it does not name interleaved, a
// district a frame names with zero flows still listed, the residual fold's
// districts added by index — and name exactly the model's districts when
// the answer is given the model.
func TestBuilderFoldsResolvedFramesLikeInternedOnes(t *testing.T) {
	frames := func() []*Frame {
		return []*Frame{
			districtFrame(1, 0, District{"05315", 7}, District{"BE-000", 0}, District{"NW-001", 2}),
			districtFrame(2, 24, District{"05315", 1}, District{"NW-001", 5}, District{"zz-1", 1}),
			districtFrame(3, 48, District{"01001", 4}, District{"BE-000", 1}, District{"TH-022", 6}),
		}
	}
	decoded := func() []*Frame {
		var out []*Frame
		for _, f := range frames() {
			d, err := DecodeFrame(EncodeFrame(f))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	model := geo.Germany()
	label := func(id string, flows uint64) streaming.DistrictCount {
		d, _ := model.DistrictByID(id)
		return streaming.DistrictCount{ID: id, Name: d.Name, StateCode: d.StateCode, Flows: flows}
	}
	want := []streaming.DistrictCount{label("01001", 4), label("05315", 8), label("16077", 3), label("BE-000", 1),
		label("NW-000", 9), label("NW-001", 7), label("TH-022", 6), label("zz-1", 1)}
	residual := func() *streaming.Range {
		snap := &streaming.Snapshot{Origin: entime.StudyStart, WindowHours: 48,
			Districts: []streaming.DistrictCount{{ID: "16077", Flows: 3}, {ID: "NW-000", Flows: 9}}}
		return streaming.Fold(testCfg(), time.Time{}, time.Time{}, streaming.FromSnapshot(snap).Detach(time.Time{}, time.Time{}))
	}

	builders := map[string]*Builder{}
	for name, fs := range map[string][]*Frame{"decoded": decoded(), "by hand": frames(), "mixed": append(decoded()[:1], frames()[1:]...)} {
		b := NewBuilder(ResolutionDay, entime.StudyStart)
		for _, f := range fs {
			b.AddFrame(f)
		}
		b.AddResidual(residual(), nil, 0)
		builders[name] = b
	}
	for name, b := range builders {
		if got := b.Answer(model); !reflect.DeepEqual(got.Districts, want) {
			t.Errorf("%s: districts %+v, want %+v", name, got.Districts, want)
		} else if !reflect.DeepEqual(got, builders["decoded"].Answer(model)) {
			t.Errorf("%s: answer differs from the decoded frames':\n got %+v\nwant %+v", name, got, builders["decoded"].Answer(model))
		}
		for i, d := range b.Answer(nil).Districts {
			if d != (streaming.DistrictCount{ID: want[i].ID, Flows: want[i].Flows}) {
				t.Errorf("%s: unnamed row %d is %+v", name, i, d)
			}
		}
	}
	if got := NewBuilder(ResolutionDay, entime.StudyStart).Answer(model); got.Districts != nil {
		t.Errorf("an answer with no district source lists %+v", got.Districts)
	}
}

// TestBuildersShareResolvedFrames is the race drill for the fold by index:
// decoded frames, as a store caches them, are folded by concurrent queries,
// each numbering the ids outside the model its frames name on its own.
// Run under -race (make race).
func TestBuildersShareResolvedFrames(t *testing.T) {
	var cached []*Frame
	for i := 0; i < 8; i++ {
		f, err := DecodeFrame(EncodeFrame(districtFrame(uint64(i), int64(24*i), District{fmt.Sprintf("%05d", 1000+i), 2}, District{"NW-000", 1})))
		if err != nil {
			t.Fatal(err)
		}
		cached = append(cached, f)
	}
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				b := NewBuilder(ResolutionDay, entime.StudyStart)
				for _, f := range cached {
					b.AddFrame(f)
				}
				if ans := b.Answer(nil); len(ans.Districts) != 9 || ans.Districts[0].ID != "01000" || ans.Districts[8] != (streaming.DistrictCount{ID: "NW-000", Flows: 8}) {
					t.Errorf("districts under concurrent folds: %+v", ans.Districts)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBucketsStaySortedInAnyOrder covers the path ascending sources never
// take: an hour older than the newest bucket lands in its own bucket, in
// place, and the running sums are those of any other order.
func TestBucketsStaySortedInAnyOrder(t *testing.T) {
	bs := newBuckets(LevelDay)
	for _, h := range []int64{50, 49, 3, 100, 26, 2, 75, 120, 0} {
		bs.add(h, 1, float64(h))
	}
	want := []Bucket{{StartHour: 0, Flows: 3, Bytes: 5}, {StartHour: 24, Flows: 1, Bytes: 26}, {StartHour: 48, Flows: 2, Bytes: 99},
		{StartHour: 72, Flows: 1, Bytes: 75}, {StartHour: 96, Flows: 1, Bytes: 100}, {StartHour: 120, Flows: 1, Bytes: 120}}
	if got := bs.render(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets %+v, want %+v", got, want)
	}
	if got := newBuckets(LevelWeek); got.render(nil) == nil {
		t.Fatal("no buckets rendered as nil, frames carry an empty list")
	}
}

// TestOneAccumulator holds the seam by reading the source: outside the
// codec, the package builds a Frame in one function, Builder.Frame, so
// every fold and every answer is summed by the builder; it folds decoded
// states, so it builds no ring (streaming.New) and parses no sketch back
// out of bytes it rendered; and the store's fold scheduler hands it those
// states from its frame cache, with no shard (newTail) per input.
func TestOneAccumulator(t *testing.T) {
	fset := token.NewFileSet()
	calls := func(file *ast.File, fn func(name, in string)) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			in := fd.Name.Name
			if fd.Recv != nil {
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					in = star.X.(*ast.Ident).Name + "." + in
				}
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok {
						fn(id.Name+"{}", in)
					}
				case *ast.CallExpr:
					switch f := n.Fun.(type) {
					case *ast.Ident:
						fn(f.Name, in)
					case *ast.SelectorExpr: // pkg.Func, or a method by its bare name
						if x, ok := f.X.(*ast.Ident); ok {
							fn(x.Name+"."+f.Sel.Name, in)
						}
						fn(f.Sel.Name, in)
					}
				}
				return true
			})
		}
	}
	pkg, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return fi.Name() != "codec.go" && !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var builds []string
	for _, file := range pkg["tier"].Files {
		calls(file, func(name, in string) {
			switch name {
			case "Frame{}":
				builds = append(builds, in)
			case "streaming.New", "sketch.DecodeHLL", "sketch.DecodeQuantile":
				t.Errorf("%s calls %s", in, name)
			}
		})
	}
	if !reflect.DeepEqual(builds, []string{"Builder.Frame"}) {
		t.Errorf("a Frame is built in %v, want in Builder.Frame alone", builds)
	}
	sched, err := parser.ParseFile(fset, "../store/tier.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls(sched, func(name, in string) {
		if name == "newTail" {
			t.Errorf("store/tier.go: %s calls newTail", in)
		}
	})
}
