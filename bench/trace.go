package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request (or one
// datagram's batch) share a trace id; parent is the span that caused
// this one, 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef names a live span for its children.
type spanRef struct{ trace, id uint64 }

// recorder collects spans in memory; nothing is written until the run
// ends. While disabled every decorator is a pass-through, which is what
// the untraced half of a traced run measures against.
type recorder struct {
	enabled atomic.Bool
	epoch   time.Time
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// live is a started span.
type live struct {
	rec  *recorder
	span span
}

// begin starts a span under parent (the zero ref starts a new trace).
// It returns nil while the recorder is disabled.
func (rec *recorder) begin(parent spanRef, name string) *live {
	if rec == nil || !rec.enabled.Load() {
		return nil
	}
	id := rec.nextID.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return &live{rec, span{Trace: trace, ID: id, Parent: parent.id, Name: name, Start: int64(time.Since(rec.epoch))}}
}

func (l *live) ref() spanRef {
	if l == nil {
		return spanRef{}
	}
	return spanRef{l.span.Trace, l.span.ID}
}

// end closes the span and returns its duration.
func (l *live) end() time.Duration {
	if l == nil {
		return 0
	}
	l.span.End = int64(time.Since(l.rec.epoch))
	l.rec.mu.Lock()
	l.rec.spans = append(l.rec.spans, l.span)
	l.rec.mu.Unlock()
	return time.Duration(l.span.dur())
}

type ctxKey struct{}

func withSpan(ctx context.Context, l *live) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, l.ref())
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

// spanHeader carries a span across an HTTP hop inside the replica.
const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.trace, 10) + "-" + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(h string) spanRef {
	t, i, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}
	}
	trace, err1 := strconv.ParseUint(t, 10, 64)
	id, err2 := strconv.ParseUint(i, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{trace, id}
}

// ---- self time ----

// selfTimes walks one trace along its critical path and returns the
// self time of every span on it, by span name, plus the root's duration.
//
// A span's self time is its duration minus the part its children cover.
// When children run in parallel (the router's shard requests), only the
// one that finishes last blocks the parent: the walk goes backwards from
// the parent's end, descends into the child that ends latest before the
// cursor, and continues from that child's start. Siblings wholly inside
// an interval already accounted for are off the critical path. Along
// that path the self times add up to the root's duration exactly — the
// property a per-layer budget needs.
func selfTimes(spans []span) (byName map[string]int64, root span, ok bool) {
	children := make(map[uint64][]span)
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	found := false
	for _, s := range spans {
		switch {
		case s.Parent == 0 && !found:
			root, found = s, true
		case s.Parent == 0:
			return nil, span{}, false // two roots: not one request
		case ids[s.Parent]:
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if !found || root.dur() <= 0 {
		return nil, span{}, false
	}
	byName = make(map[string]int64)
	var walk func(s span, lo, hi int64)
	walk = func(s span, lo, hi int64) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
		cursor := hi
		var self int64
		for _, k := range kids {
			ks, ke := max(k.Start, lo), min(k.End, cursor)
			if ke <= ks {
				continue
			}
			self += cursor - ke
			walk(k, ks, ke)
			cursor = ks
		}
		self += cursor - lo
		byName[s.Name] += self
	}
	walk(root, root.Start, root.End)
	return byName, root, true
}

// budget aggregates selfTimes over every complete trace whose root has
// the given name: mean self time per request by span name (µs), the
// number of traces, and the worst relative gap between a trace's summed
// self times and its root (0 by construction; reported as a check).
func budget(spans []span, rootName string) (meanUS map[string]float64, traces int, worstGapPct float64) {
	byTrace := make(map[uint64][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sum := make(map[string]int64)
	for _, ts := range byTrace {
		self, root, ok := selfTimes(ts)
		if !ok || root.Name != rootName {
			continue
		}
		traces++
		var total int64
		for name, ns := range self {
			sum[name] += ns
			total += ns
		}
		gap := 100 * float64(abs64(total-root.dur())) / float64(root.dur())
		worstGapPct = max(worstGapPct, gap)
	}
	meanUS = make(map[string]float64, len(sum))
	for name, ns := range sum {
		meanUS[name] = float64(ns) / float64(traces) / 1e3
	}
	return meanUS, traces, worstGapPct
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// meanDurUS is the mean duration of the spans with the given name.
func meanDurUS(spans []span, name string) float64 {
	var total int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// maxFileSpans bounds the span file: an ingest run records one span per
// datagram, half a million in ten seconds, and the first stretch shows
// the same shape as the rest.
const maxFileSpans = 100000

// traceFile is the on-disk shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Recorded  int                `json:"spans_recorded"`
	Truncated bool               `json:"truncated"`
	BudgetUS  map[string]float64 `json:"budget_us,omitempty"`
	Spans     []span             `json:"spans"`
}

// writeTrace writes the span file and returns its path.
func writeTrace(root string, tf *traceFile) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf.Recorded = len(tf.Spans)
	if len(tf.Spans) > maxFileSpans {
		tf.Spans, tf.Truncated = tf.Spans[:maxFileSpans], true
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
