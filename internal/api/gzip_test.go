package api

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
)

// stitched renders body as a stitched member and holds it to gzip's own
// reader: exactly one member (a response must not be several), which
// decodes to body — CRC and length are checked by the reader — and
// accounts for every byte.
func stitched(body []byte, cuts []v1.Cut) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	member := bytes.Clone(d.member(body, cuts))
	r := bytes.NewReader(member)
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	got, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, body) || r.Len() != 0 {
		return nil, fmt.Errorf("member of %d bytes decodes to %d bytes (want %d), %d bytes unread; %d cuts", len(member), len(got), len(body), r.Len(), len(cuts))
	}
	return member, nil
}

func stitch(t testing.TB, body []byte, cuts []v1.Cut) []byte {
	t.Helper()
	member, err := stitched(body, cuts)
	if err != nil {
		t.Fatal(err)
	}
	return member
}

// hourRows is n rows of an hours array as the append encoder writes
// them, each followed by its comma.
func hourRows(from, n int) []byte {
	var b []byte
	for h := from; h < from+n; h++ {
		b = fmt.Appendf(b, `{"hour":%d,"time":"2020-06-%02dT%02d:00:00+02:00","flows":%d,"bytes":%d},`, h, 1+h/24%28, h%24, 1000+h%97, 1_500_000+1009*h)
	}
	return b
}

// keyOf stands in for the rows a text was rendered from: a key as long
// as a real one that no other text shares.
func keyOf(text []byte) []byte {
	sum := sha256.Sum256(text)
	return bytes.Repeat(sum[:], 65)
}

// cutAt asks cache for the stretches of body between neighbouring
// offsets the way the encoder asks for a closed block — Find, and Keep
// when the key was met before but nothing is kept — and returns the cuts
// of those it got; an empty stretch is none.
func cutAt(t testing.TB, cache *blockCache, body []byte, offs []int) (cuts []v1.Cut) {
	t.Helper()
	for i := 1; i < len(offs); i++ {
		text := body[offs[i-1]:offs[i]]
		if len(text) == 0 {
			continue
		}
		b, met := cache.Find(keyOf(text))
		if b == nil && met {
			b = cache.Keep(keyOf(text), text)
		}
		if b != nil && !bytes.Equal(b.Text, text) {
			t.Errorf("asked for %.40q, the cache serves %.40q", text, b.Text)
		} else if b != nil {
			cuts = append(cuts, v1.Cut{Off: offs[i-1], Block: b})
		}
	}
	return cuts
}

// yearBody is a snapshot shaped like a store's, hours hour by hour from
// first on in zone loc, and what a json.Encoder writes of it.
func yearBody(t testing.TB, first, hours int, loc *time.Location, flows func(h int) float64) (*v1.Snapshot, []byte) {
	t.Helper()
	origin := entime.StudyStart.In(loc)
	snap := &v1.Snapshot{Origin: origin, WindowHours: hours, SeriesStart: first, Late: 3}
	for h := first; h < first+hours; h++ {
		snap.Hours = append(snap.Hours, v1.HourPoint{Hour: h, Time: origin.Add(time.Duration(h) * time.Hour), Flows: flows(h), Bytes: float64(1_500_000 + 1009*h)})
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return snap, want.Bytes()
}

// FuzzStitchedGzip holds the stitched member to gzip's own reader. For
// any body and any ascending offsets, with the stretches between them
// asked for as blocks — on a cold block cache (every block met for the
// first time, compressed in runs), on the one that leaves (every block
// compressed alone and kept) and on the warm one (every block copied) —
// one member decodes to the body, CRC and length included, and uses
// every byte; then the kept blocks are served to a different body —
// other head, other tail, other offsets — which must decode to its own
// text: a deflated block depends on its text alone. And for a real body,
// hours from the same input rendered through the same cache by their
// rows: every rendering is what a json.Encoder writes, whether a block
// was rendered, kept or spliced — also for another body on the same
// hours whose rows differ in one bit, which must be served none of the
// kept blocks that row falls in.
func FuzzStitchedGzip(f *testing.F) {
	steps := func(cuts ...int) (b []byte) {
		last := 0
		for _, c := range cuts {
			b, last = binary.LittleEndian.AppendUint16(b, uint16(c-last)), c
		}
		return b
	}
	head := []byte(`{"snapshot":{"hours":[`)
	rows := len(hourRows(128, 128))
	f.Add([]byte("no cuts at all"), steps())
	f.Add([]byte("a lone cut closes nothing"), steps(7))
	f.Add(append(append(head, hourRows(128, 300)...), `],"late":3}`...), steps(len(head), len(head)+rows, len(head)+2*rows))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 4096), steps(0, 0, 200, 207, 30000, 30001, 32768))
	f.Add([]byte{0, 1, 2, 3}, steps(1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, body, steps []byte) {
		// Two bytes a step: how far the next offset lies behind the last.
		// Offsets may coincide, and sit at either end of the body.
		var offs []int
		for at := 0; len(steps) >= 2; steps = steps[2:] {
			if at += int(binary.LittleEndian.Uint16(steps)); at > len(body) {
				break
			}
			offs = append(offs, at)
		}
		cache := newBlockCache(blockBytes)
		stitch(t, body, cutAt(t, cache, body, offs)) // a stretch the body holds twice is met again at once
		kept := stitch(t, body, cutAt(t, cache, body, offs))
		if warm := stitch(t, body, cutAt(t, cache, body, offs)); !bytes.Equal(warm, kept) {
			t.Fatal("the member of copied blocks differs from the one they were kept from")
		}
		if len(offs) >= 2 {
			first, last := offs[0], offs[len(offs)-1]
			other := append([]byte("another head, of another length"), body[first:last]...)
			other = append(other, "and a tail"...)
			moved := make([]int, len(offs))
			for i, c := range offs {
				moved[i] = c - first + len("another head, of another length")
			}
			stitch(t, other, cutAt(t, cache, other, moved))
		}

		// The real body: up to 400 hours whose flows are the input's bytes
		// (-0 and a fraction among them), from an hour the offsets pick.
		first := 100
		if len(offs) > 0 {
			first = offs[0] % 300
		}
		snap, want := yearBody(t, first, 130+len(body)%270, time.FixedZone("", 7200), func(h int) float64 {
			if len(body) == 0 {
				return 0
			}
			return []float64{float64(body[h%len(body)]), math.Copysign(0, -1), 0.5}[h%7%3]
		})
		render := func(when string) {
			t.Helper()
			b, err := renderBody(nil, snap, false, cache)
			if err != nil || !bytes.Equal(b.body, want) {
				t.Fatalf("%s: rendered (%v)\n%s\nwant\n%s", when, err, b.body, want)
			}
			stitch(t, b.body, b.cuts)
		}
		render("first sighting")
		render("second sighting")
		render("warm")
		// One bit of one row (a bit no float formats the same without):
		// every block but that row's is spliced, and the body is its own.
		odd := snap.Hours[len(snap.Hours)/3]
		snap.Hours[len(snap.Hours)/3].Bytes = math.Float64frombits(math.Float64bits(odd.Bytes) ^ 1<<40)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		want = buf.Bytes()
		render("with one row changed")
	})
}

// TestStitchedBlocksAreReused is the saving itself, on a body shaped
// like the real ones. A block met for the first time is rendered and
// compressed with what adjoins it and leaves only its hash; met again it
// is rendered once more, compressed alone and kept; and then it is
// spliced into any body that shares its rows (a wider range, other text
// around the array), as text and as deflate.
func TestStitchedBlocksAreReused(t *testing.T) {
	cache := newBlockCache(blockBytes)
	flows := func(h int) float64 { return float64(1000 + h%97) }
	snap, want := yearBody(t, 100, 600, time.UTC, flows) // blocks 128, 256, 384, 512 closed
	first, err := renderBody(nil, snap, false, cache)
	if err != nil || !bytes.Equal(first.body, want) || len(first.cuts) != 4 || first.cuts[0].Block != nil || first.cuts[3].Block != nil {
		t.Fatalf("first sighting: %v, cuts %v, want four blocks met and none kept", err, first.cuts)
	}
	if whole := stitch(t, want, nil); !bytes.Equal(stitch(t, first.body, first.cuts), whole) {
		t.Fatal("blocks met for the first time were not compressed as one run with the rest")
	}
	again, _ := renderBody(nil, snap, false, cache)
	wider, wantWider := yearBody(t, 3, 698, time.UTC, flows)
	other, err := renderBody(nil, wider, false, cache)
	if err != nil || !bytes.Equal(again.body, want) || !bytes.Equal(other.body, wantWider) {
		t.Fatalf("kept or spliced blocks changed a body (%v)", err)
	}
	if len(again.cuts) != 4 || len(other.cuts) != 4 {
		t.Fatalf("%d blocks kept at their second sighting, %d spliced into the wider body, want 4 and 4", len(again.cuts), len(other.cuts))
	}
	member, otherMember := stitch(t, again.body, again.cuts), stitch(t, other.body, other.cuts)
	for i, c := range again.cuts {
		if other.cuts[i].Block != c.Block {
			t.Fatalf("block %d of the wider body is not the kept one", i)
		}
		if !bytes.Contains(member, c.Block.Deflated) || !bytes.Contains(otherMember, c.Block.Deflated) {
			t.Fatalf("block %d was not stitched into both members", i)
		}
	}
	if hits, misses := cache.hits.Value(), cache.misses.Value(); hits != 0 || misses != 0 {
		t.Fatalf("an uninstrumented cache counted %d hits, %d misses", hits, misses)
	}
}

// TestBlockCacheComparesTheText pins the hit rule: a block is served for
// its whole key and no other — not for one that differs in its last
// byte, nor for a prefix of it.
func TestBlockCacheComparesTheText(t *testing.T) {
	cache := newBlockCache(blockBytes)
	text := hourRows(0, 128)
	key := keyOf(text)
	if b, met := cache.Find(key); b != nil || met {
		t.Fatal("hit on an empty cache")
	}
	kept := cache.Keep(key, text)
	near := bytes.Clone(key)
	near[len(near)-1] ^= 1
	for name, other := range map[string][]byte{"a key one bit off": near, "a prefix of the key": key[:len(key)-1]} {
		if b, met := cache.Find(other); b != nil || met {
			t.Fatalf("%s is served %q (met %t)", name, b.Text, met)
		}
	}
	if b, met := cache.Find(key); b != kept || !met {
		t.Fatal("the kept block is not served for its own key")
	}
}

// TestBlockCacheIsBounded fills the cache far past its bound: it never
// holds more than that, keeps what is still asked for through any number
// of generations, and refuses a block that alone would fill one.
func TestBlockCacheIsBounded(t *testing.T) {
	const bound = 64 << 10
	cache := newBlockCache(bound)
	hot := hourRows(0, 16)
	cache.Find(keyOf(hot))
	kept := cache.Keep(keyOf(hot), hot)
	for i := 1; i < 2000; i++ {
		text := hourRows(i*16, 16)
		if cache.Find(keyOf(text)); i%2 == 0 { // half stay hashes met once
			cache.Keep(keyOf(text), text)
		}
		if b, _ := cache.Find(keyOf(hot)); b != kept {
			t.Fatalf("after %d inserts the block asked for every time is gone", i)
		}
		held := 0
		for _, gen := range []map[string]*v1.Block{cache.young, cache.old} {
			for key, b := range gen {
				held += blockSize(key, b)
			}
		}
		if held > bound || cache.youngBytes > bound/2 {
			t.Fatalf("after %d inserts the cache holds %d bytes (%d young), bound %d", i, held, cache.youngBytes, bound)
		}
	}
	big := bytes.Repeat([]byte("x"), bound/2+1)
	cache.Find(keyOf(big))
	cache.Keep(keyOf(big), big)
	if b, _ := cache.Find(keyOf(big)); b != nil {
		t.Fatal("a block larger than a generation was filed")
	}
}

// TestBlockCacheConcurrent drives one cache from several goroutines over
// overlapping bodies small enough to force generations to turn over; run
// under -race (make race) it is the check of the cache's locking, and
// every member must still decode to its body.
func TestBlockCacheConcurrent(t *testing.T) {
	cache := newBlockCache(48 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var body []byte
				var offs []int
				for h := (g*7 + i) % 40; h < 64; h++ {
					if h%4 == 0 {
						offs = append(offs, len(body))
					}
					body = append(body, hourRows(h*8, 8)...)
				}
				if _, err := stitched(body, cutAt(t, cache, body, offs)); err != nil {
					t.Errorf("goroutine %d, body %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBlockCountersFollowTheSplice is the consumer of
// api_block_hits_total / api_block_misses_total: a polled panel whose
// closed hours do not change misses each of its blocks twice (noted,
// then kept) and from the third poll on finds every one — whatever
// ingest does to the open hours behind them. A ratio that stays near 0
// on a polled year panel means its blocks never close, or that the bound
// is too small for the panels in use (DESIGN.md, the runbook line).
func TestBlockCountersFollowTheSplice(t *testing.T) {
	const days = 12 // 288 hours: blocks 0 and 128 closed, 256 open
	st, _ := tierServer(t, days)
	reg := obs.NewRegistry()
	s, err := New(Config{History: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (hits, misses float64) {
		t.Helper()
		var page strings.Builder
		if err := reg.WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		exp, errs := obs.Lint(page.String())
		for _, e := range errs {
			t.Errorf("exposition lint: %v", e)
		}
		hits, _ = exp.Value("api_block_hits_total", "")
		misses, _ = exp.Value("api_block_misses_total", "")
		return hits, misses
	}
	for poll, want := range [][2]float64{{0, 2}, {0, 4}, {2, 4}, {4, 4}} {
		// An append between any two polls: every one renders its body.
		if err := st.Append([]netflow.Record{keptRecord(days*24-1, poll, 100)}); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("poll %d: %d %s", poll, w.Code, w.Body)
		}
		if hits, misses := counters(); hits != want[0] || misses != want[1] {
			t.Fatalf("after poll %d: %v hits, %v misses, want %v and %v", poll+1, hits, misses, want[0], want[1])
		}
	}
}

// TestBodyAtRestIsBuiltTwice pins the one build the second-sighting rule
// adds on a store nobody writes to: the first answer to a question meets
// its closed blocks for the first time and goes out as one stream; the
// next request for it, the response cache's hit at the parent, builds it
// again, which keeps them; from the third on the cached body is served
// with its blocks' deflate copied, however often it is asked for.
func TestBodyAtRestIsBuiltTwice(t *testing.T) {
	st, _ := tierServer(t, 12)
	reg := obs.NewRegistry()
	s, err := New(Config{History: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wire []int
	for i := 0; i < 5; i++ {
		r := httptest.NewRequest(http.MethodGet, "/api/v1/query", nil)
		r.Header.Set("Accept-Encoding", "gzip")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get("ETag") == "" {
			t.Fatalf("request %d: %d, ETag %q", i, w.Code, w.Header().Get("ETag"))
		}
		wire = append(wire, w.Body.Len())
	}
	if misses, hits := s.m.cacheMisses.Value(), s.m.cacheHits.Value(); misses != 2 || hits != 3 {
		t.Fatalf("%d builds and %d cache hits over five requests at rest, want 2 and 3", misses, hits)
	}
	if wire[0] == wire[2] || wire[1] != wire[2] || wire[2] != wire[4] {
		t.Fatalf("wire bytes %v: want one stream first, then the stitched member every time", wire)
	}
}

// TestBurstAtRestIsBuiltTwice is TestBodyAtRestIsBuiltTwice for a burst:
// concurrent first asks share one build, and every one of them gets its
// single stream; that body met its closed blocks for the first time, so
// it is not kept, though it was asked for more than once. The next ask
// builds it again, which keeps them, and from then on the cached body is
// served stitched from their deflate.
func TestBurstAtRestIsBuiltTwice(t *testing.T) {
	const burst = 4
	st, _ := tierServer(t, 12)
	h := &gatedHistory{Store: st, started: make(chan struct{}), gate: make(chan struct{})}
	s, err := New(Config{History: h, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ask := func() int {
		r := httptest.NewRequest(http.MethodGet, "/api/v1/snapshot", nil)
		r.Header.Set("Accept-Encoding", "gzip")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get("ETag") == "" {
			t.Errorf("%d, ETag %q", w.Code, w.Header().Get("ETag"))
		}
		return w.Body.Len()
	}
	wire := make([]int, burst+3)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); wire[i] = ask() }()
	}
	<-h.started
	for lookups(s.cache) < burst {
		runtime.Gosched()
	}
	close(h.gate)
	wg.Wait()
	for i := burst; i < len(wire); i++ {
		wire[i] = ask()
	}
	if calls, builds, hits := h.calls.Load(), s.m.cacheMisses.Value(), s.m.cacheHits.Value(); calls != 2 || builds != 2 || hits != burst+1 {
		t.Fatalf("%d asks cost %d snapshots, %d builds and %d hits, want 2, 2 and %d", len(wire), calls, builds, hits, burst+1)
	}
	for i, n := range wire {
		if stream := i < burst; (n == wire[0]) != stream || (n == wire[len(wire)-1]) == stream {
			t.Fatalf("wire bytes %v: want the burst's stream %d times, then the stitched member", wire, burst)
		}
	}
}
