package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},   // exactly 10 beyond
		{999, 0.99, 990, false},   // 9 beyond
		{200, 0.95, 190, true},    // exactly 10 beyond
		{199, 0.95, 190, false},   // 9 beyond
		{3, 0.5, 2, true},         // the median needs no tail
		{1000, 0.999, 999, false}, // 1 beyond
	} {
		got, ok := percentile(sample(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported ok")
	}
	// The tail falls back to the highest percentile the sample carries.
	if v, p := tailPercentile(sample(300), 0.99, 0.95, 0.9); p != 0.95 || v != 285 {
		t.Errorf("tailPercentile(1..300) = %v at p%v, want 285 at p0.95", v, p)
	}
}

// The spread must be the driver's: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{1, 1, 2, 3, 5, 8, 13}, 1, 8},
		{[]float64{4, 7}, 3.25, 7.75},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// An open loop charges a stall to every datagram it delays: lateness is
// taken from the schedule fixed in advance, not from the previous send.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 30000} // 1000 datagrams of 30 records a second
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want the start", got)
	}
	if got := s.due(30000).Sub(start); got != time.Second {
		t.Fatalf("due(30000 records) = %v after the start, want 1s", got)
	}
	// A sender that takes 0.5 ms per datagram keeps up with the 1 ms
	// slots until it stalls for 10 ms before datagram 5; it then needs
	// until datagram 24 to catch up, and every datagram in between is
	// late by what is left of the stall.
	clock := start
	var late []time.Duration
	for k := uint64(0); k < 30; k++ {
		due := s.due(k * 30)
		if clock.Before(due) {
			clock = due
		}
		if k == 5 {
			clock = clock.Add(10 * time.Millisecond)
		}
		late = append(late, clock.Sub(due))
		clock = clock.Add(500 * time.Microsecond)
	}
	if late[4] != 0 || late[5] != 10*time.Millisecond {
		t.Fatalf("lateness around the stall = %v, %v; want 0, 10ms", late[4], late[5])
	}
	if late[6] != 9500*time.Microsecond || late[15] != 5*time.Millisecond {
		t.Fatalf("the stall is not charged on: late[6] = %v, late[15] = %v; want 9.5ms, 5ms", late[6], late[15])
	}
	if late[25] != 0 {
		t.Fatalf("late[25] = %v, want 0 once the sender caught up", late[25])
	}
}

// Records are written off only while the node is idle. A node that is
// slow — everything sent sits in its queues — must keep the window
// shut however long it stalls: the first version of this harness opened
// it after 500 ms without progress, and a disk stall then ended in a
// drop storm.
func TestWriteOffOnlyWhenTheNodeIsIdle(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }

	// Stalled node: 7650 sent and decoded, 3000 processed, no progress.
	var w writeOff
	for ms := 0; ms <= 3000; ms += 2 {
		if off, changed := w.observe(at(ms), 7650, 7650, 3000, 0); changed || off != 0 {
			t.Fatalf("a stalled node with a full queue wrote off %d records after %d ms", off, ms)
		}
	}

	// Idle node: 90 of 7650 never arrived; the rest is processed.
	w = writeOff{}
	var wrote time.Duration
	for ms := 0; ms <= 1000 && wrote == 0; ms += 2 {
		off, changed := w.observe(at(ms), 7650, 7560, 7560, 0)
		if changed {
			if off != 90 {
				t.Fatalf("wrote off %d records, want the 90 that never arrived", off)
			}
			wrote = time.Duration(ms) * time.Millisecond
		}
	}
	if wrote <= ackStall || wrote > ackStall+10*time.Millisecond {
		t.Fatalf("wrote off after %v, want just past %v", wrote, ackStall)
	}
	// What is written off is no longer outstanding.
	for ms := 1000; ms <= 2000; ms += 2 {
		if _, changed := w.observe(at(ms), 7650, 7560, 7560, 90); changed {
			t.Fatal("wrote the same records off twice")
		}
	}

	// Progress restarts the clock: an idle spell of 400 ms, one more
	// batch, another 400 ms.
	w = writeOff{}
	for ms := 0; ms <= 800; ms += 2 {
		acked := uint64(7000)
		if ms >= 400 {
			acked = 7030
		}
		if _, changed := w.observe(at(ms), 7650, acked, acked, 0); changed {
			t.Fatalf("wrote off at %d ms although the node made progress at 400 ms", ms)
		}
	}
}

// The host clock's factor multiplies rates and divides times, and leaves
// what it is not told about alone.
func TestNormalizeToNominalHost(t *testing.T) {
	r := &run{m: map[string]metric{
		"ops_per_s":      {100, "1/s"},
		"latency_p50_ms": {12, "ms"},
		"rss_peak_mb":    {40, "MB"},
	}, hostFactor: 1.25} // a host a quarter slower than nominal
	r.normalizeToNominalHost([]string{"ops_per_s"}, []string{"latency_p50_ms"})
	if got := r.m["ops_per_s"]; got != (metric{125, "1/s"}) {
		t.Errorf("ops_per_s = %v, want 125 1/s", got)
	}
	if got := r.m["latency_p50_ms"]; got != (metric{9.6, "ms"}) {
		t.Errorf("latency_p50_ms = %v, want 9.6 ms", got)
	}
	if got := r.m["rss_peak_mb"]; got != (metric{40, "MB"}) {
		t.Errorf("rss_peak_mb = %v, want it untouched", got)
	}
	if len(r.problems) != 0 {
		t.Errorf("unexpected problems: %v", r.problems)
	}
	r.hostFactor = 0
	r.normalizeToNominalHost([]string{"ops_per_s"}, nil)
	if len(r.problems) != 1 {
		t.Errorf("a window without a clock reading must fail the run, got problems %v", r.problems)
	}
}

func TestHostClockTicks(t *testing.T) {
	h := startHostClock()
	defer h.close()
	time.Sleep(3*hostTick + hostTick/2)
	factor, unitUS, n := h.lap()
	if n < 2 || unitUS <= 0 || factor != unitUS/us(nominalHostUnit) {
		t.Fatalf("lap() = factor %v, unit %v µs, %d readings; want at least 2 readings and factor = unit/nominal", factor, unitUS, n)
	}
	if _, _, n := h.lap(); n != 0 {
		t.Fatalf("a lap taken at once holds %d readings, want a fresh start", n)
	}
}

const histPage = `# HELP demo_seconds A demo.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="0.001"} %d
demo_seconds_bucket{le="0.01"} %d
demo_seconds_bucket{le="0.1"} %d
demo_seconds_bucket{le="+Inf"} %d
demo_seconds_sum 1.5
demo_seconds_count %d
# HELP shard_seconds Per shard.
# TYPE shard_seconds histogram
shard_seconds_bucket{shard="0",le="1"} 4
shard_seconds_bucket{shard="0",le="+Inf"} 4
shard_seconds_sum{shard="0"} 2
shard_seconds_count{shard="0"} 4
# HELP depth Queue depth.
# TYPE depth gauge
depth{shard="0"} 3
depth{shard="1"} 7
`

func histText(a, b, c, inf int) string {
	return fmt.Sprintf(histPage, a, b, c, inf, inf)
}

func TestHistogramQuantilesThroughLint(t *testing.T) {
	before, err := parseMetrics(histText(10, 10, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(histText(10, 110, 210, 210))
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := before.buckets("demo_seconds", ""), after.buckets("demo_seconds", "")
	if len(b1) != 4 || !math.IsInf(b1[3].le, 1) || b1[1].le != 0.01 {
		t.Fatalf("buckets = %+v", b1)
	}
	// Between the scrapes: 0 in (0,1ms], 100 in (1ms,10ms], 100 in
	// (10ms,100ms]. The median is the top of the second bucket; p75 is
	// half way through the third.
	if q, ok := histQuantile(b0, b1, 0.5); !ok || math.Abs(q-0.01) > 1e-12 {
		t.Errorf("p50 = %v, %v; want 0.01", q, ok)
	}
	if q, ok := histQuantile(b0, b1, 0.75); !ok || math.Abs(q-0.055) > 1e-12 {
		t.Errorf("p75 = %v, %v; want 0.055", q, ok)
	}
	if _, ok := histQuantile(b1, b1, 0.5); ok {
		t.Error("a window with no observations reported a quantile")
	}
	// Without a before-scrape the totals themselves are used.
	if q, ok := histQuantile(nil, b0, 0.5); !ok || q != 0.0005 {
		t.Errorf("p50 of the first scrape alone = %v, %v; want 0.0005", q, ok)
	}
	if got := after.buckets("shard_seconds", `{shard="0"}`); len(got) != 2 || got[0].count != 4 {
		t.Errorf("labelled buckets = %+v", got)
	}
	if after.maxOf("depth") != 7 {
		t.Errorf("depth max %v, want 7", after.maxOf("depth"))
	}
	// The repo's linter is the parser: what it rejects, the harness rejects.
	if _, err := parseMetrics("demo_total 1\n"); err == nil {
		t.Error("a sample without HELP/TYPE passed the lint")
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("shard0;dur=12.3, shard1;dur=0.4")
	if err != nil || len(got) != 2 || got[0] != 12.3 || got[1] != 0.4 {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := parseServerTiming(""); err != nil || got != nil {
		t.Fatalf("empty header: %v, %v", got, err)
	}
	if got, err := parseServerTiming("shard2;dur=5"); err != nil || len(got) != 3 || got[2] != 5 {
		t.Fatalf("sparse shards: %v, %v", got, err)
	}
	for _, bad := range []string{"db;dur=1", "shard0", "shardx;dur=1", "shard0;dur=fast", "shard0;desc=x"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestSelfTimesFollowTheCriticalPath(t *testing.T) {
	// root 0..100
	//   router 10..90
	//     fanout 20..80
	//       rttA 22..50   (finishes first: off the critical path)
	//       rttB 25..78   (the slow shard sets the time)
	//         shard 30..70
	//           store 35..60
	spans := []span{
		{Trace: 1, ID: 1, Name: "bench.request", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "api.router_serve", Start: 10, End: 90},
		{Trace: 1, ID: 3, Parent: 2, Name: "cluster.fanout", Start: 20, End: 80},
		{Trace: 1, ID: 4, Parent: 3, Name: "client.rtt", Start: 22, End: 50},
		{Trace: 1, ID: 5, Parent: 3, Name: "client.rtt", Start: 25, End: 78},
		{Trace: 1, ID: 6, Parent: 5, Name: "api.shard_serve", Start: 30, End: 70},
		{Trace: 1, ID: 7, Parent: 6, Name: "store.query_1d_hour", Start: 35, End: 60},
		{Trace: 1, ID: 8, Parent: 99, Name: "orphan", Start: 1, End: 2}, // parent never recorded
	}
	self, root, ok := selfTimes(spans)
	if !ok || root.ID != 1 {
		t.Fatalf("selfTimes: ok=%v root=%+v", ok, root)
	}
	want := map[string]int64{
		"bench.request":    20, // 0..10 and 90..100
		"api.router_serve": 20, // 10..20 and 80..90
		"cluster.fanout":   4,  // 78..80 and 20..22
		// rttB contributes 25..30 and 70..78; rttA, clipped to what
		// rttB does not cover, contributes 22..25.
		"client.rtt":          13 + 3,
		"api.shard_serve":     15, // 30..35 and 60..70
		"store.query_1d_hour": 25,
	}
	var total int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		total += self[name]
	}
	if total != root.dur() {
		t.Errorf("self times sum to %d, root lasted %d", total, root.dur())
	}
	mean, traces, gap := budget(spans, "bench.request")
	if traces != 1 || gap != 0 || mean["store.query_1d_hour"] != 0.025 {
		t.Errorf("budget = %v over %d traces, gap %v", mean, traces, gap)
	}
	if _, _, ok := selfTimes(append(spans, span{Trace: 1, ID: 9, Name: "second root", Start: 0, End: 5})); ok {
		t.Error("a trace with two roots was accepted")
	}
}

func TestProcParsing(t *testing.T) {
	// Field 2 may contain spaces and parentheses.
	stat := "4242 (col lect) ord) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 200 300"
	got, err := parseProcStat(stat)
	if err != nil || got != 2.0 {
		t.Fatalf("parseProcStat = %v, %v; want 2.0 (150+50 ticks)", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage stat parsed")
	}
	mb, err := parseVmHWM("Name:\tcollectord\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 20 {
		t.Fatalf("parseVmHWM = %v, %v; want 20", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestJudge(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := func(center float64) []float64 {
		return []float64{center * 0.7, center * 1.3, center, center * 0.8, center * 1.2, center}
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady(100), steady(100), false, verdictOK},
		{"lower-is-better got 20% worse", steady(100), steady(120), false, verdictRegressed},
		{"lower-is-better got 20% better", steady(100), steady(80), false, verdictOK},
		{"higher-is-better got 20% worse", steady(100), steady(80), true, verdictRegressed},
		{"higher-is-better got 20% better", steady(100), steady(120), true, verdictOK},
		{"within the bound", steady(100), steady(105), false, verdictOK},
		{"too noisy to tell", noisy(100), noisy(105), false, verdictUnresolved},
		{"noisy but every run better", noisy(100), steady(50), false, verdictOK},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "ingest_only"}},
		EndToEnd:  []specMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
	}
	set := func(ops, loss float64) []result {
		var out []result
		for i := 0; i < 5; i++ {
			out = append(out, result{Workload: "ingest_only", Correct: true, Metrics: map[string]metric{
				"ops_per_s":  {ops * (1 + 0.002*float64(i)), "1/s"},
				"loss_ratio": {loss, "ratio"},
			}})
		}
		return out
	}
	var sb strings.Builder
	if reg, unres := compareRuns(&sb, sp, set(1000, 0), set(1010, 0)); reg != 0 || unres != 0 {
		t.Errorf("equal sets: %d regressed, %d unresolved\n%s", reg, unres, sb.String())
	}
	sb.Reset()
	if reg, _ := compareRuns(&sb, sp, set(1000, 0), set(800, 0)); reg != 1 || !strings.Contains(sb.String(), "regressed") {
		t.Errorf("20%% slower: %d regressed\n%s", reg, sb.String())
	}
	sb.Reset()
	if reg, _ := compareRuns(&sb, sp, set(1000, 0), set(1000, 0.01)); reg != 1 {
		t.Errorf("higher loss_ratio must regress whatever the medians say: %d regressed\n%s", reg, sb.String())
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestQueryCycleIsExactAndSeeded(t *testing.T) {
	a, b := queryCycle(newRand(1), 364), queryCycle(newRand(1), 364)
	if len(a) != 16 {
		t.Fatalf("cycle has %d classes, want 16", len(a))
	}
	seen := make(map[queryClass]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different cycle at %d", i)
		}
		seen[a[i]] = true
	}
	if len(seen) != 16 {
		t.Fatalf("cycle repeats a class: %v", a)
	}
	urls := make(map[string]bool)
	rng := newRand(2)
	for i := 0; i < 200; i++ {
		urls[queryURL(rng, queryClass{364, "hour"}, 364)] = true
	}
	if len(urls) < yearStarts/2 {
		t.Errorf("year-span requests use only %d distinct URLs; the response caches would serve them", len(urls))
	}
}

// TestSmoke runs all four workloads, traced, at one measured second on
// reduced inputs, and holds the program to BENCHMARK.json: every
// declared name is emitted, every emitted name is declared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]string)
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %s twice", m.Name)
		}
		declared[m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(sp.Workloads), len(workloadNames))
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]bool) // run directories of other, concurrent runs
	existing, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	for _, dir := range existing {
		before[dir] = true
	}
	for i, name := range workloadNames {
		if sp.Workloads[i].Name != name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, sp.Workloads[i].Name, name)
		}
		res, err := runWorkload(options{workload: name, seed: 3, seconds: 1, trace: true, quick: true}, sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range res.Problems {
			// One second cannot saturate the collector or fill a tail; the
			// smoke run is about names and plumbing.
			if !strings.Contains(p, "generator-bound") && !strings.Contains(p, "too short") {
				t.Errorf("%s: %s", name, p)
			}
		}
		var undeclared, missing []string
		for n, m := range res.Metrics {
			if unit, ok := declared[n]; !ok {
				undeclared = append(undeclared, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %s is in %q, declared in %q", name, n, m.Unit, unit)
			}
		}
		for n := range declared {
			if _, ok := res.Metrics[n]; !ok {
				missing = append(missing, n)
			}
		}
		sort.Strings(undeclared)
		sort.Strings(missing)
		if len(undeclared) > 0 || len(missing) > 0 {
			t.Errorf("%s: emitted but not declared %v; declared but not emitted %v", name, undeclared, missing)
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	// Nothing may be left behind: every run directory is removed whole.
	after, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	for _, dir := range after {
		if !before[dir] {
			t.Errorf("run directory %s was left behind", dir)
		}
	}
}
