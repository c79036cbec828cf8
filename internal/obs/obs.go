// Package obs is the shared telemetry core of the live stack: a
// dependency-free metrics registry (atomic counters and gauges,
// fixed-bucket lock-free histograms, callback-backed samples for
// counters another subsystem already maintains) that renders canonical
// Prometheus text exposition, plus the request-trace context (trace.go)
// every HTTP layer propagates.
//
// Design rules, in the order they matter:
//
//   - The hot path owns the cost model. Counter.Add, Gauge.Set and
//     Histogram.Observe are single atomic operations on pre-resolved
//     instruments — no map lookups, no label rendering, no allocation.
//     Instruments are resolved once at wiring time; the per-event call
//     is what the zero-alloc ingest tests see.
//   - Disabled is free. Every instrument method is nil-safe, and a nil
//     *Registry (obs.Disabled) hands out nil instruments, so an
//     uninstrumented daemon pays one predictable nil check per event —
//     the overhead budget cmd/obsgate (make obs-gate) audits.
//   - The exposition is the contract. Registration enforces the naming
//     rules the strict parser (lint.go) checks — valid names, counters
//     ending in _total, no histogram-suffix collisions, no duplicate
//     (name, labels) series — so a daemon that builds its registry can
//     never serve a /metrics page its own test suite would reject.
//
// Registration is meant for process start-up and panics on programmer
// error (invalid or duplicate names), exactly like http.ServeMux.Handle;
// rendering and every instrument method are safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Disabled is the nil registry: it hands out nil instruments whose
// methods are no-ops, so a subsystem wired with it runs uninstrumented
// at the cost of one nil check per event.
var Disabled *Registry

// Label is one metric label pair. Values are escaped at render time;
// keys must be valid label names.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is an ordered set of metric families. The zero value is not
// usable; NewRegistry builds one, and a nil *Registry is the disabled
// mode (see Disabled).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// family is every series sharing one metric name (HELP/TYPE are emitted
// once per family).
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	buckets []float64

	series []*series
	seen   map[string]struct{} // rendered label sets, for duplicate rejection
}

// series is one (name, labels) sample source.
type series struct {
	labels  string // canonical rendered label set, "" for none
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// NewRegistry builds an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds one series, enforcing the naming contract.
func (r *Registry) register(name, help, typ string, buckets []float64, labels []Label) *series {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %s registered without help text", name))
	}
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %s must end in _total", name))
	}
	if typ != "counter" {
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				panic(fmt.Sprintf("obs: %s %s must not end in the reserved suffix %s", typ, name, suffix))
			}
		}
	}
	ls := renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, seen: make(map[string]struct{})}
		r.families = append(r.families, f)
		r.byName[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		if _, dup := f.seen[ls]; dup {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, ls))
		}
	}
	s := &series{labels: ls}
	f.series = append(f.series, s)
	f.seen[ls] = struct{}{}
	return s
}

// renderLabels renders a label set canonically: sorted by key,
// values escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range sorted {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes a label value per the text exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter registers a monotonically increasing counter. The name must
// end in _total. Returns nil on a disabled registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", nil, labels).counter = c
	return c
}

// Gauge registers a settable gauge. Returns nil on a disabled registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, "gauge", nil, labels).gauge = g
	return g
}

// CounterFunc registers a counter whose value is read from fn at render
// time — the port for subsystems that already maintain their own atomic
// counters (the ingest pipeline's Stats, the store's Metrics). fn must
// be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", nil, labels).fn = fn
}

// GaugeFunc registers a gauge read from fn at render time. fn must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", nil, labels).fn = fn
}

// Histogram registers a fixed-bucket histogram. buckets are the
// inclusive upper bounds, ascending; the +Inf bucket is implicit.
// Returns nil on a disabled registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bucket bounds must be ascending", name))
		}
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, "histogram", bounds, labels).hist = h
	return h
}

// WritePrometheus renders every registered family in text exposition
// format: HELP and TYPE once per family, then one line per sample, in
// registration order (byte-stable across restarts, modulo values).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var sb strings.Builder
	for _, f := range families {
		sb.Reset()
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				s.hist.render(&sb, f.name, s.labels)
			default:
				sb.WriteString(f.name)
				sb.WriteString(s.labels)
				sb.WriteByte(' ')
				sb.WriteString(formatValue(s.value()))
				sb.WriteByte('\n')
			}
		}
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// value reads a scalar series.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// formatValue renders a sample value the way %g would, without the
// fmt machinery on the render path.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- instruments ----

// Counter is a monotonically increasing counter. The zero value is
// ready; a nil Counter is a no-op (the disabled mode).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 gauge. The zero value is ready; a nil
// Gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (CAS loop; used for in-flight counts).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with a lock-free Observe:
// one atomic add on the bucket, the count and the (bit-cast) sum. A nil
// Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤16) and the scan is
	// branch-predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// render emits the cumulative bucket lines plus _sum and _count.
func (h *Histogram) render(sb *strings.Builder, name, labels string) {
	// Merge the le label into the series label set.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket%sle=\"%s\"} %d\n", name, open, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, labels, formatValue(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, labels, cum)
}

// DurationBuckets is the default latency bucket ladder (seconds):
// 100µs to ~100s in roughly 3x steps, tuned to cover both a
// microsecond-scale decode stage and a multi-second degraded fan-out in
// one family.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
