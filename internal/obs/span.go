// Span tracing and the trace half of the flight recorder. A Tracer
// records one span tree per request (or per background operation) and
// keeps the interesting ones — tail-sampling, decided at completion
// when the outcome is known, instead of head-sampling at arrival when
// it is not. "Interesting" means slow (over a per-endpoint threshold),
// errored (5xx or an explicit Fail), or degraded (206/503 partial
// results), plus a 1-in-N baseline so healthy traffic stays visible.
//
// Spans ride the same context as the request id: the trace id IS the
// X-Request-Id, so an operator goes from an access-log line or a
// degraded envelope straight to /debug/traces?id=... without a second
// identifier. Cross-process parenting uses X-Trace-Parent (a
// traceparent-style header carrying the caller's span id) so the
// router's fan-out spans become the parents of each shard's root span
// and the merged tree reads as one request.
//
// Hot-path discipline matches the rest of the package: every Span
// method is safe on a nil receiver, so uninstrumented code pays one
// nil check; Tracer methods are safe on a nil *Tracer. The ring of
// completed traces is lock-free (atomic slot pointers behind an atomic
// cursor); only the spans of one in-flight trace share a mutex, which
// is uncontended except when a fan-out's children finish together.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceParentHeader is the HTTP header carrying the caller's span id
// (16 hex characters) across the router -> shard hop, next to
// X-Request-Id. The receiving daemon parents its root span under it so
// cross-process trees merge.
const TraceParentHeader = "X-Trace-Parent"

// FormatSpanID renders a span id for the wire: 16 lowercase hex chars.
func FormatSpanID(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// ParseSpanID parses a wire span id. Strict: exactly 16 hex characters
// (either case). Returns (0, false) on anything else, including the
// empty string, so a missing or mangled header degrades to "no remote
// parent" instead of corrupting the tree.
func ParseSpanID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return 0, false
	}
	id := binary.BigEndian.Uint64(b)
	return id, id != 0
}

// spanIDs hands out process-unique span ids: a per-process random seed
// mixed with an atomic counter through a splitmix64 finalizer. Unique
// across the fleet with overwhelming probability (the seed is 64
// random bits) without paying crypto/rand per span.
var spanIDs = struct {
	seed uint64
	n    atomic.Uint64
}{seed: randomSeed()}

func randomSeed() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15 // arbitrary nonzero fallback
	}
	return binary.BigEndian.Uint64(b[:])
}

func nextSpanID() uint64 {
	for {
		x := spanIDs.seed + spanIDs.n.Add(1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 { // 0 means "no parent" on the wire
			return x
		}
	}
}

// newTraceID mints a trace id for background traces that arrived with
// no request id (checkpoints, flushes). Same alphabet and length as
// NewRequestID but fed from the span-id generator: cheaper than
// crypto/rand, which matters for per-fsync traces.
func newTraceID() string {
	return FormatSpanID(nextSpanID())
}

// Attr is one typed span or event attribute. Build them with Str, Int
// and Bool; they serialize into a JSON object keyed by name.
type Attr struct {
	Key string

	kind byte // 's', 'i', 'b'
	s    string
	i    int64
	b    bool
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: 's', s: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: 'i', i: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, kind: 'b', b: v} }

// value returns the attribute's dynamic value for JSON encoding.
func (a Attr) value() any {
	switch a.kind {
	case 's':
		return a.s
	case 'i':
		return a.i
	case 'b':
		return a.b
	}
	return nil
}

// String renders "key=value" for text dumps (the event ring's crash
// dump); strings are quoted so multi-word values stay one token.
func (a Attr) String() string {
	if a.kind == 's' {
		return fmt.Sprintf("%s=%q", a.Key, a.s)
	}
	return fmt.Sprintf("%s=%v", a.Key, a.value())
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.value()
	}
	return m
}

// SpanData is one completed span as served by /debug/traces. IDs are
// wire-format (16 hex chars) so they can be compared across processes.
type SpanData struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Node names the process that recorded the span; empty for spans
	// local to the serving daemon, filled in by the router when it
	// merges shard spans into a cross-process tree.
	Node    string         `json:"node,omitempty"`
	Start   time.Time      `json:"start"`
	Microns int64          `json:"duration_us"`
	Error   string         `json:"error,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Trace is one retained span tree.
type Trace struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	Microns int64     `json:"duration_us"`
	// Status is the root HTTP status (0 for background traces).
	Status   int  `json:"status,omitempty"`
	Error    bool `json:"error,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Keep lists why tail-sampling retained the trace: any of "slow",
	// "error", "degraded", "sampled".
	Keep []string `json:"keep"`
	// SpansDropped counts spans discarded past Policy.MaxSpans.
	SpansDropped int        `json:"spans_dropped,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// Policy is the tail-sampling policy: which completed traces the ring
// retains.
type Policy struct {
	// Slow is the keep threshold on root-span duration (zero is the
	// default, 500ms; negative disables the slow rule).
	Slow time.Duration
	// KeepOneIn retains every Nth otherwise-boring trace as a healthy
	// baseline (zero is the default, 64; negative disables — StackFlags
	// maps -trace-sample 0 there).
	KeepOneIn int
	// MaxSpans bounds one trace's span count; past it spans are counted
	// in SpansDropped instead of recorded (default 512).
	MaxSpans int
}

func (p Policy) withDefaults() Policy {
	if p.Slow == 0 {
		p.Slow = 500 * time.Millisecond
	}
	if p.KeepOneIn == 0 {
		p.KeepOneIn = 64
	}
	if p.MaxSpans <= 0 {
		p.MaxSpans = 512
	}
	return p
}

// TracerConfig parameterizes NewTracer.
type TracerConfig struct {
	// RingSize is the retained-trace capacity (default 256). The ring
	// overwrites oldest-first, so it holds the last N interesting
	// traces, not the first N.
	RingSize int
	// Policy is the tail-sampling policy (zero value = defaults).
	Policy Policy
}

// Tracer owns the trace ring. A nil *Tracer is the disabled mode:
// StartTrace returns a nil Span and the context unchanged.
type Tracer struct {
	ring   []atomic.Pointer[Trace]
	cursor atomic.Uint64
	policy Policy

	started      atomic.Uint64 // traces begun
	kept         atomic.Uint64 // traces the policy retained
	spansDropped atomic.Uint64 // spans past MaxSpans, all traces
	sampleTick   atomic.Uint64 // 1-in-N baseline counter
}

// NewTracer builds a Tracer with the given ring size and policy.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	return &Tracer{
		ring:   make([]atomic.Pointer[Trace], cfg.RingSize),
		policy: cfg.Policy.withDefaults(),
	}
}

// RegisterMetrics exposes the tracer's own accounting on the registry.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.CounterFunc("trace_started_total", "Traces begun (before tail-sampling).",
		func() float64 { return float64(t.started.Load()) })
	reg.CounterFunc("trace_kept_total", "Traces the tail-sampling policy retained.",
		func() float64 { return float64(t.kept.Load()) })
	reg.CounterFunc("trace_spans_dropped_total", "Spans discarded past the per-trace cap.",
		func() float64 { return float64(t.spansDropped.Load()) })
}

// activeTrace is one in-flight trace: the mutable collection the spans
// of a single request append into. The mutex covers spans/dropped/done;
// it is per-trace, so contention is limited to one request's own
// concurrency (fan-out children ending together).
type activeTrace struct {
	tracer *Tracer
	id     string
	root   *Span

	mu      sync.Mutex
	spans   []SpanData
	dropped int
	done    bool
}

// Span is one timed operation inside a trace. All methods are nil-safe.
type Span struct {
	at     *activeTrace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	errmsg string
	status int // root only: HTTP status driving the keep decision
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// StartTrace begins a new trace rooted at a span named name. The trace
// id is the request id carried by ctx (minted fresh when absent, so
// background traces — checkpoints, flushes — are addressable too).
// parent is the remote caller's span id from X-Trace-Parent, or 0 for
// a local root. The returned context carries the trace and the root
// span for StartSpan; callers must End the root to trigger the keep
// decision. Nil-safe: a nil Tracer returns (ctx, nil).
func (t *Tracer) StartTrace(ctx context.Context, name string, parent uint64) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	id := RequestID(ctx)
	if id == "" {
		id = newTraceID()
		ctx = WithRequestID(ctx, id)
	}
	t.started.Add(1)
	at := &activeTrace{tracer: t, id: id}
	sp := &Span{at: at, id: nextSpanID(), parent: parent, name: name, start: time.Now()}
	at.root = sp
	ctx = context.WithValue(ctx, traceCtxKey{}, at)
	ctx = context.WithValue(ctx, spanCtxKey{}, sp.id)
	return ctx, sp
}

// StartSpan begins a child span under the current span in ctx. Without
// an active trace it is free: (ctx, nil), and the nil Span swallows
// Set/Fail/End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	at, _ := ctx.Value(traceCtxKey{}).(*activeTrace)
	if at == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(uint64)
	sp := &Span{at: at, id: nextSpanID(), parent: parent, name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, sp.id), sp
}

// ContextSpanID returns the current span id in ctx (0 when untraced);
// the client layer forwards it as X-Trace-Parent.
func ContextSpanID(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// Set appends attributes to the span.
func (sp *Span) Set(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, attrs...)
	sp.mu.Unlock()
}

// Fail marks the span errored. A failed root retains the whole trace.
func (sp *Span) Fail(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.mu.Lock()
	sp.errmsg = err.Error()
	sp.mu.Unlock()
}

// SetStatus records the HTTP status on a root span; the keep decision
// reads it (>=500 errored, 206/503 degraded). No-op on children.
func (sp *Span) SetStatus(code int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.status = code
	sp.mu.Unlock()
}

// End completes the span. Ending the root finalizes the trace and runs
// tail-sampling; ending a child appends it to the in-flight trace. A
// child ending after its root (a handler racing the TimeoutHandler) is
// dropped — the trace is already sealed.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	dur := time.Since(sp.start)
	at := sp.at
	sp.mu.Lock()
	data := SpanData{
		ID:      FormatSpanID(sp.id),
		Name:    sp.name,
		Start:   sp.start,
		Microns: dur.Microseconds(),
		Error:   sp.errmsg,
		Attrs:   attrMap(sp.attrs),
	}
	status := sp.status
	sp.mu.Unlock()
	if sp.parent != 0 {
		data.Parent = FormatSpanID(sp.parent)
	}

	if sp == at.root {
		at.finalize(data, status, dur)
		return
	}
	at.mu.Lock()
	switch {
	case at.done:
		// sealed; drop silently (counted nowhere: the trace is gone)
	case len(at.spans) >= at.tracer.policy.MaxSpans:
		at.dropped++
		at.tracer.spansDropped.Add(1)
	default:
		at.spans = append(at.spans, data)
	}
	at.mu.Unlock()
}

// finalize seals the trace and applies the tail-sampling policy.
func (at *activeTrace) finalize(root SpanData, status int, dur time.Duration) {
	t := at.tracer
	at.mu.Lock()
	if at.done {
		at.mu.Unlock()
		return
	}
	at.done = true
	spans := append(at.spans, root)
	dropped := at.dropped
	at.spans = nil
	at.mu.Unlock()

	errored := root.Error != "" || status >= 500
	degraded := status == http.StatusPartialContent || status == http.StatusServiceUnavailable
	var keep []string
	if slow := t.policy.Slow; slow >= 0 && dur >= slow {
		keep = append(keep, "slow")
	}
	if errored {
		keep = append(keep, "error")
	}
	if degraded {
		keep = append(keep, "degraded")
	}
	if keep == nil && t.policy.KeepOneIn > 0 &&
		(t.sampleTick.Add(1)-1)%uint64(t.policy.KeepOneIn) == 0 {
		keep = append(keep, "sampled")
	}
	if keep == nil {
		return
	}
	t.kept.Add(1)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	tr := &Trace{
		ID:           at.id,
		Name:         root.Name,
		Start:        root.Start,
		Microns:      root.Microns,
		Status:       status,
		Error:        errored,
		Degraded:     degraded,
		Keep:         keep,
		SpansDropped: dropped,
		Spans:        spans,
	}
	i := t.cursor.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(tr)
}

// Traces snapshots the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	n := len(t.ring)
	out := make([]*Trace, 0, n)
	cur := t.cursor.Load()
	for i := 0; i < n; i++ {
		// walk backwards from the newest slot
		slot := (cur + uint64(n) - 1 - uint64(i)) % uint64(n)
		if tr := t.ring[slot].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Lookup returns the newest retained trace with the given id, or nil.
func (t *Tracer) Lookup(id string) *Trace {
	for _, tr := range t.Traces() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// traceSummary is the list view of /debug/traces: everything but the
// span bodies.
type traceSummary struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Microns  int64     `json:"duration_us"`
	Status   int       `json:"status,omitempty"`
	Error    bool      `json:"error,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Keep     []string  `json:"keep"`
	Spans    int       `json:"spans"`
}

// Handler serves the trace ring as JSON: the retained-trace index
// (newest first), or one full span tree with ?id=<request id>.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if t == nil {
			json.NewEncoder(w).Encode(map[string]any{"ring_size": 0, "traces": []traceSummary{}})
			return
		}
		if id := r.URL.Query().Get("id"); id != "" {
			tr := t.Lookup(id)
			if tr == nil {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": "trace not retained", "id": id})
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(tr)
			return
		}
		traces := t.Traces()
		sums := make([]traceSummary, 0, len(traces))
		for _, tr := range traces {
			sums = append(sums, traceSummary{
				ID: tr.ID, Name: tr.Name, Start: tr.Start, Microns: tr.Microns,
				Status: tr.Status, Error: tr.Error, Degraded: tr.Degraded,
				Keep: tr.Keep, Spans: len(tr.Spans),
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"ring_size": len(t.ring), "traces": sums})
	})
}
