package obs

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// keepAll retains every completed trace: no slow threshold, keep-1-in-1.
func keepAll(ring int) *Tracer {
	return NewTracer(TracerConfig{RingSize: ring, Policy: Policy{Slow: -1, KeepOneIn: 1}})
}

func TestSpanTreeAndRetention(t *testing.T) {
	tr := keepAll(8)
	ctx, root := tr.StartTrace(WithRequestID(context.Background(), "req-1"), "v1_snapshot", 0)
	if got := RequestID(ctx); got != "req-1" {
		t.Fatalf("trace id = %q, want the request id", got)
	}
	cctx, child := StartSpan(ctx, "fanout.shard")
	child.Set(Int("shard", 2), Str("node", "n2"), Bool("ok", true))
	_, grand := StartSpan(cctx, "leaf")
	grand.End()
	child.End()
	root.SetStatus(200)
	root.End()

	got := tr.Lookup("req-1")
	if got == nil {
		t.Fatal("trace not retained")
	}
	if got.Name != "v1_snapshot" || got.Status != 200 || got.Error || got.Degraded {
		t.Fatalf("trace header = %+v", got)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("span count = %d, want 3", len(got.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	if byName["fanout.shard"].Parent != byName["v1_snapshot"].ID {
		t.Errorf("child parent = %q, want root %q", byName["fanout.shard"].Parent, byName["v1_snapshot"].ID)
	}
	if byName["leaf"].Parent != byName["fanout.shard"].ID {
		t.Errorf("grandchild parent = %q, want child %q", byName["leaf"].Parent, byName["fanout.shard"].ID)
	}
	if byName["v1_snapshot"].Parent != "" {
		t.Errorf("root parent = %q, want none", byName["v1_snapshot"].Parent)
	}
	attrs := byName["fanout.shard"].Attrs
	if attrs["shard"] != int64(2) || attrs["node"] != "n2" || attrs["ok"] != true {
		t.Errorf("attrs = %#v", attrs)
	}
}

func TestTailSamplingPolicy(t *testing.T) {
	run := func(tr *Tracer, name string, status int, fail error) {
		_, root := tr.StartTrace(context.Background(), name, 0)
		root.SetStatus(status)
		root.Fail(fail)
		root.End()
	}
	t.Run("healthy dropped", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: -1}})
		run(tr, "v1_health", 200, nil)
		if n := len(tr.Traces()); n != 0 {
			t.Fatalf("retained %d healthy traces, want 0", n)
		}
	})
	t.Run("error kept", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: -1}})
		run(tr, "v1_query", 500, nil)
		got := tr.Traces()
		if len(got) != 1 || !got[0].Error || strings.Join(got[0].Keep, ",") != "error" {
			t.Fatalf("traces = %+v", got)
		}
	})
	t.Run("degraded kept", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: -1}})
		for _, status := range []int{206, 503} {
			run(tr, "v1_snapshot", status, nil)
		}
		got := tr.Traces()
		if len(got) != 2 {
			t.Fatalf("retained %d degraded traces, want 2", len(got))
		}
		for _, g := range got {
			if !g.Degraded {
				t.Errorf("status %d: Degraded = false", g.Status)
			}
		}
		// 503 is both degraded and an error; 206 only degraded.
		if !got[0].Error || got[1].Error {
			t.Errorf("error flags: 503=%t 206=%t", got[0].Error, got[1].Error)
		}
	})
	t.Run("slow kept", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Nanosecond, KeepOneIn: -1}})
		run(tr, "v1_query", 200, nil)
		got := tr.Traces()
		if len(got) != 1 || strings.Join(got[0].Keep, ",") != "slow" {
			t.Fatalf("traces = %+v", got)
		}
	})
	t.Run("failed root kept", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: -1}})
		run(tr, "store.checkpoint", 0, fmt.Errorf("disk full"))
		got := tr.Traces()
		if len(got) != 1 || !got[0].Error {
			t.Fatalf("traces = %+v", got)
		}
	})
	t.Run("baseline 1-in-N", func(t *testing.T) {
		tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: 10}})
		for i := 0; i < 40; i++ {
			run(tr, "v1_health", 200, nil)
		}
		if n := len(tr.Traces()); n != 4 {
			t.Fatalf("baseline retained %d of 40, want 4", n)
		}
	})
	// The daemons' flags: -trace-sample N keeps 1-in-N, and 0 switches the
	// baseline off as its usage line says (it kept 1-in-64).
	for sample, want := range map[string]int{"10": 20, "0": 0} {
		t.Run("flag -trace-sample "+sample, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			stack := StackFlags(fs)
			if err := fs.Parse([]string{"-trace-sample", sample, "-trace-slow", "1h"}); err != nil {
				t.Fatal(err)
			}
			tr := stack().Tracer
			for i := 0; i < 200; i++ {
				run(tr, "v1_health", 200, nil)
			}
			if n := len(tr.Traces()); n != want {
				t.Fatalf("retained %d of 200 healthy traces, want %d", n, want)
			}
		})
	}
}

func TestSpanCapAndLateChildren(t *testing.T) {
	tr := NewTracer(TracerConfig{Policy: Policy{Slow: -1, KeepOneIn: 1, MaxSpans: 3}})
	ctx, root := tr.StartTrace(WithRequestID(context.Background(), "cap"), "r", 0)
	var late *Span
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "c")
		if i == 4 {
			late = sp
			continue // ends after the root: must be dropped, not panic
		}
		sp.End()
	}
	root.End()
	late.End()
	got := tr.Lookup("cap")
	if got == nil {
		t.Fatal("trace not retained")
	}
	// 3 children hit the cap, the 4th was dropped, the root always lands.
	if len(got.Spans) != 4 || got.SpansDropped != 1 {
		t.Fatalf("spans = %d dropped = %d, want 4/1", len(got.Spans), got.SpansDropped)
	}
}

func TestNilTracerAndUntracedContext(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartTrace(context.Background(), "x", 0)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.Set(Str("k", "v"))
	sp.Fail(fmt.Errorf("e"))
	sp.SetStatus(500)
	sp.End()
	if tr.Traces() != nil || tr.Lookup("x") != nil {
		t.Fatal("nil tracer retained traces")
	}
	_, child := StartSpan(ctx, "y")
	if child != nil {
		t.Fatal("StartSpan without a trace returned a span")
	}
	child.End()
	if ContextSpanID(ctx) != 0 {
		t.Fatal("untraced context has a span id")
	}
}

func TestSpanIDWire(t *testing.T) {
	id := nextSpanID()
	s := FormatSpanID(id)
	if len(s) != 16 {
		t.Fatalf("FormatSpanID length = %d", len(s))
	}
	back, ok := ParseSpanID(s)
	if !ok || back != id {
		t.Fatalf("round trip %q -> (%d, %t), want %d", s, back, ok, id)
	}
	if up, ok := ParseSpanID(strings.ToUpper(s)); !ok || up != id {
		t.Fatalf("uppercase parse failed")
	}
	for _, bad := range []string{
		"",                  // empty
		"abc",               // short
		"0123456789abcde",   // 15 chars
		"0123456789abcdef0", // 17 chars
		"0123456789abcdeg",  // non-hex
		"0000000000000000",  // zero id = no parent
		strings.Repeat("a", 65),
	} {
		if id, ok := ParseSpanID(bad); ok {
			t.Errorf("ParseSpanID(%q) = (%d, true), want rejection", bad, id)
		}
	}
}

// TestTraceRingConcurrentWriters exercises the lock-free ring and the
// per-trace span collection under -race: concurrent traces completing
// (ring slot stores + cursor) while each trace's own spans end from
// multiple goroutines.
func TestTraceRingConcurrentWriters(t *testing.T) {
	tr := keepAll(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartTrace(
					WithRequestID(context.Background(), fmt.Sprintf("t-%d-%d", g, i)), "r", 0)
				var cwg sync.WaitGroup
				for c := 0; c < 4; c++ {
					_, sp := StartSpan(ctx, "child")
					cwg.Add(1)
					go func(sp *Span) {
						defer cwg.Done()
						sp.Set(Int("n", 1))
						sp.End()
					}(sp)
				}
				cwg.Wait()
				root.End()
				tr.Traces() // concurrent reads against the slot stores
			}
		}(g)
	}
	wg.Wait()
	traces := tr.Traces()
	if len(traces) != 16 {
		t.Fatalf("ring holds %d traces, want 16 (full)", len(traces))
	}
	for _, g := range traces {
		if len(g.Spans) != 5 {
			t.Fatalf("trace %s has %d spans, want 5", g.ID, len(g.Spans))
		}
	}
}

func TestTraceHandler(t *testing.T) {
	tr := keepAll(8)
	ctx, root := tr.StartTrace(WithRequestID(context.Background(), "h-1"), "v1_snapshot", 0)
	_, sp := StartSpan(ctx, "fanout.shard")
	sp.End()
	root.SetStatus(206)
	root.End()

	// Index view.
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var index struct {
		RingSize int `json:"ring_size"`
		Traces   []struct {
			ID       string `json:"id"`
			Degraded bool   `json:"degraded"`
			Spans    int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatalf("index: %v\n%s", err, rec.Body.String())
	}
	if index.RingSize != 8 || len(index.Traces) != 1 || index.Traces[0].ID != "h-1" ||
		!index.Traces[0].Degraded || index.Traces[0].Spans != 2 {
		t.Fatalf("index = %+v", index)
	}

	// Single-trace view: full spans, JSON round-trips into Trace.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=h-1", nil))
	var full Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if full.ID != "h-1" || len(full.Spans) != 2 || !full.Degraded {
		t.Fatalf("trace = %+v", full)
	}

	// Unknown id is a JSON 404.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id status = %d, want 404", rec.Code)
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Policy: Policy{Slow: time.Hour, KeepOneIn: -1}})
	tr.RegisterMetrics(reg)
	_, root := tr.StartTrace(context.Background(), "a", 0)
	root.End() // boring: started but not kept
	_, root = tr.StartTrace(context.Background(), "b", 0)
	root.SetStatus(500)
	root.End() // kept
	exp := mustLint(t, render(t, reg))
	if v, _ := exp.Value("trace_started_total", ""); v != 2 {
		t.Errorf("trace_started_total = %v, want 2", v)
	}
	if v, _ := exp.Value("trace_kept_total", ""); v != 1 {
		t.Errorf("trace_kept_total = %v, want 1", v)
	}
}
