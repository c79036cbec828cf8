package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// mustLint lints a rendered page and fails the test on any violation.
func mustLint(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, errs := Lint(text)
	for _, err := range errs {
		t.Errorf("lint: %v", err)
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", text)
	}
	return exp
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "Total events.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("queue_depth", "Current queue depth.", L("shard", "0"))
	g.Set(7)
	r.GaugeFunc("freshness_lag_seconds", "Lag behind the wire.", func() float64 { return 1.5 })
	r.CounterFunc("ported_total", "A ported counter.", func() float64 { return 9 })
	h := r.Histogram("op_seconds", "Operation latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	text := render(t, r)
	exp := mustLint(t, text)

	if v, ok := exp.Value("events_total", ""); !ok || v != 42 {
		t.Errorf("events_total = %v, %v; want 42", v, ok)
	}
	if v, ok := exp.Value("queue_depth", `{shard="0"}`); !ok || v != 7 {
		t.Errorf("queue_depth{shard=0} = %v, %v; want 7", v, ok)
	}
	if v, ok := exp.Value("freshness_lag_seconds", ""); !ok || v != 1.5 {
		t.Errorf("freshness_lag_seconds = %v, %v; want 1.5", v, ok)
	}
	if v, ok := exp.Value("op_seconds_bucket", `{le="0.1"}`); !ok || v != 2 {
		t.Errorf("op_seconds_bucket{le=0.1} = %v, %v; want cumulative 2", v, ok)
	}
	if v, ok := exp.Value("op_seconds_bucket", `{le="+Inf"}`); !ok || v != 3 {
		t.Errorf("op_seconds_bucket{le=+Inf} = %v, %v; want 3", v, ok)
	}
	if v, ok := exp.Value("op_seconds_count", ""); !ok || v != 3 {
		t.Errorf("op_seconds_count = %v, %v; want 3", v, ok)
	}
	if exp.Types["events_total"] != "counter" || exp.Types["op_seconds"] != "histogram" {
		t.Errorf("types = %v", exp.Types)
	}
}

// Metric names and ordering must be byte-stable across registry rebuilds
// (restarts): same registrations, same page modulo values.
func TestExpositionByteStableAcrossRebuild(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("a_total", "A.")
		r.Gauge("b", "B.", L("shard", "1"), L("node", "x"))
		r.Gauge("b", "B.", L("shard", "0"), L("node", "y"))
		r.Histogram("c_seconds", "C.", []float64{1, 2})
		return r
	}
	if got, want := render(t, build()), render(t, build()); got != want {
		t.Errorf("rebuilt registry rendered differently:\n%s\nvs\n%s", got, want)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"counter without _total", func(r *Registry) { r.Counter("events", "E.") }},
		{"gauge with _total", func(r *Registry) { r.Gauge("x_total", "X.") }},
		{"gauge with _bucket", func(r *Registry) { r.Gauge("x_bucket", "X.") }},
		{"invalid name", func(r *Registry) { r.Gauge("bad name", "X.") }},
		{"empty help", func(r *Registry) { r.Gauge("x", "") }},
		{"invalid label", func(r *Registry) { r.Gauge("x", "X.", L("bad-key", "v")) }},
		{"type clash", func(r *Registry) { r.Gauge("x", "X."); r.Histogram("x", "X.", []float64{1}) }},
		{"duplicate series", func(r *Registry) { r.Gauge("x", "X."); r.Gauge("x", "X.") }},
		{"duplicate labeled series", func(r *Registry) {
			r.Gauge("x", "X.", L("a", "1"))
			r.Gauge("x", "X.", L("a", "1"))
		}},
		{"unordered buckets", func(r *Registry) { r.Histogram("h_seconds", "H.", []float64{2, 1}) }},
		{"empty buckets", func(r *Registry) { r.Histogram("h_seconds", "H.", nil) }},
		{"duplicate func series", func(r *Registry) {
			f := func() float64 { return 0 }
			r.CounterFunc("f_total", "F.", f)
			r.CounterFunc("f_total", "F.", f)
		}},
		{"func clashes with instrument", func(r *Registry) {
			r.Gauge("x", "X.")
			r.GaugeFunc("x", "X.", func() float64 { return 0 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// Distinct label values on one family are fine and render as separate
// series under a single HELP/TYPE header.
func TestLabeledFamilySharesHeader(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Gauge("shard_depth", "Depth.", L("shard", string(rune('0'+i)))).Set(float64(i))
	}
	text := render(t, r)
	mustLint(t, text)
	if n := strings.Count(text, "# TYPE shard_depth gauge"); n != 1 {
		t.Errorf("TYPE header count = %d, want 1\n%s", n, text)
	}
}

// The disabled registry and its nil instruments must be no-ops, not
// panics: this is the obs.Disabled mode every subsystem defaults to.
func TestDisabledRegistryIsNoOp(t *testing.T) {
	var r *Registry = Disabled
	c := r.Counter("x_total", "X.")
	g := r.Gauge("y", "Y.")
	h := r.Histogram("z_seconds", "Z.", []float64{1})
	r.CounterFunc("f_total", "F.", func() float64 { return 1 })
	r.GaugeFunc("fg", "FG.", func() float64 { return 1 })
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments should read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

// The hot-path methods must not allocate: the ingest zero-alloc pin
// depends on it.
func TestInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "X.")
	g := r.Gauge("y", "Y.")
	h := r.Histogram("z_seconds", "Z.", DurationBuckets)
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.004)
		nilC.Add(1)
		nilH.Observe(1)
	}); n != 0 {
		t.Errorf("hot-path instruments allocate %v allocs/op, want 0", n)
	}
}

func TestLintRejectsBadPages(t *testing.T) {
	cases := []struct{ name, page string }{
		{"duplicate sample", "# HELP a_total A.\n# TYPE a_total counter\na_total 1\na_total 2\n"},
		{"unsuffixed counter", "# HELP a A.\n# TYPE a counter\na 1\n"},
		{"missing HELP", "# TYPE a_total counter\na_total 1\n"},
		{"missing TYPE", "# HELP a_total A.\na_total 1\n"},
		{"blank line", "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n\n"},
		{"no trailing newline", "# HELP a_total A.\n# TYPE a_total counter\na_total 1"},
		{"histogram without inf", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"count mismatch", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n"},
		{"declared but unsampled", "# HELP a_total A.\n# TYPE a_total counter\n"},
		{"reserved suffix on gauge", "# HELP g_bucket G.\n# TYPE g_bucket gauge\ng_bucket 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, errs := Lint(tc.page); len(errs) == 0 {
				t.Errorf("lint accepted bad page:\n%s", tc.page)
			}
		})
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "G.", L("path", `a"b\c`)).Set(1)
	text := render(t, r)
	mustLint(t, text)
	if !strings.Contains(text, `path="a\"b\\c"`) {
		t.Errorf("label value not escaped:\n%s", text)
	}
}

func TestRequestID(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 || !ValidRequestID(id) {
		t.Errorf("NewRequestID() = %q", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Errorf("two request ids collided: %q", id)
	}
	for _, ok := range []string{"abc", "A-b_c.9", strings.Repeat("x", 64)} {
		if !ValidRequestID(ok) {
			t.Errorf("ValidRequestID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "a b", "x\n", "{evil}", strings.Repeat("x", 65),
		"id-ä", "日本", "x\x80y"} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true, want false", bad)
		}
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestID(ctx); got != id {
		t.Errorf("RequestID(ctx) = %q, want %q", got, id)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Errorf("RequestID(empty ctx) = %q, want empty", got)
	}
}
