package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runTraced is the second half of a -trace run, after the end-to-end
// half has finished with real daemons: the same workload against the
// in-process replica, first with the recorder off and then with it on
// (the difference is the tracing overhead), then the direct layer
// timings. Its numbers are never mixed into the end-to-end metrics.
func (r *run) runTraced() error {
	if r.fx == nil {
		// The ingest workloads have no fixture of their own; the direct
		// timings of the query-side layers still need one.
		res, err := runSim(r.opt.seed, r.in.fixtureScale)
		if err != nil {
			return err
		}
		r.sample = res.Records
		if r.fx, err = buildFixtures(r.in, res, r.sb.dir, false); err != nil {
			return err
		}
	}
	rec := newRecorder()
	rp := &replica{rec: rec, appends: &appendCounts{}, queries: &queryCounts{}}
	var err error
	switch r.opt.workload {
	case "ingest_only":
		err = r.tracedIngest(rp, "interval")
	case "ingest_fsync_always":
		err = r.tracedIngest(rp, "always")
	case "query_only":
		err = r.tracedQueryOnly(rp)
	case "mixed_steady":
		err = r.tracedMixed(rp)
	}
	rp.close()
	if err != nil {
		return fmt.Errorf("traced replica: %w", err)
	}
	if err := r.reportSpans(rp); err != nil {
		return err
	}
	if err := r.directLayers(r.sample, r.fx.whole); err != nil {
		return fmt.Errorf("direct layer timings: %w", err)
	}
	// A per-layer metric that does not exist on this workload (append
	// timings on query_only, say) is reported as 0 in its declared unit.
	for _, d := range r.spec.PerLayer {
		if _, ok := r.m[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit)
		}
	}
	return nil
}

// overhead reports the traced half against the untraced half, as a
// percentage by which tracing made the number worse.
func (r *run) overhead(untraced, traced float64, higherIsBetter bool) {
	pct := 0.0
	if untraced > 0 {
		pct = 100 * (traced - untraced) / untraced
		if higherIsBetter {
			pct = -pct
		}
	}
	r.set("bench.trace_overhead_pct", pct, "%")
}

func (r *run) tracedIngest(rp *replica, policy string) error {
	dir := filepath.Join(r.sb.dir, "replica-data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := rp.startNode(r.in, dir, policy, "", 5*time.Second); err != nil {
		return err
	}
	if err := rp.startRouter(); err != nil {
		return err
	}
	f, err := startFeed(r.in, rp.nodes[0].asDaemon(), 0, 0, false)
	if err != nil {
		return err
	}
	// The untraced and the traced half, each half the run length.
	half := time.Duration(r.opt.seconds) * time.Second / 2
	var acked [3]uint64
	var at [3]time.Time
	sample := func(i int) { acked[i], at[i] = f.g.acked.Load(), time.Now() }
	time.Sleep(time.Second) // warm-up
	sample(0)
	time.Sleep(half)
	sample(1)
	rp.rec.enabled.Store(true)
	time.Sleep(half)
	rp.rec.enabled.Store(false)
	sample(2)
	if err := f.finish(nil); err != nil {
		return err
	}
	rate := func(i int) float64 { return float64(acked[i+1]-acked[i]) / at[i+1].Sub(at[i]).Seconds() }
	r.overhead(rate(0), rate(1), true)
	return nil
}

func (r *run) tracedQueryOnly(rp *replica) error {
	for i, dir := range r.fx.shards {
		if err := rp.startNode(r.in, dir, "interval", fmt.Sprintf("%d/%d", i, fixtureShards), 0); err != nil {
			return err
		}
	}
	if err := rp.startRouter(); err != nil {
		return err
	}
	conns := []*conn{newConn(benchTransport(rp.rec)), newConn(benchTransport(rp.rec))}
	defer conns[0].close()
	defer conns[1].close()
	half := time.Duration(r.opt.seconds) * time.Second / 2
	always := func() bool { return true }
	load := func(seed int64, traced bool) *queryStats {
		stop := make(chan struct{})
		rp.rec.enabled.Store(traced)
		time.AfterFunc(half, func() { close(stop) })
		qs := runQueryLoad("http://"+rp.router, seed, r.in.days, conns, stop, always)
		rp.rec.enabled.Store(false)
		return qs
	}
	// Different seeds per half: the same URLs twice would serve the
	// second half from the caches the first one filled.
	off := load(r.opt.seed, false)
	on := load(r.opt.seed+7919, true)
	if on.failed+off.failed > 0 {
		r.note("traced replica: %d of %d requests failed: %s%s", on.failed+off.failed, on.attempted+off.attempted, off.firstErr, on.firstErr)
	}
	r.overhead(median(off.latMS), median(on.latMS), false)
	return nil
}

func (r *run) tracedMixed(rp *replica) error {
	if err := rp.startNode(r.in, r.fx.whole, "interval", "", 5*time.Second); err != nil {
		return err
	}
	if err := rp.startRouter(); err != nil {
		return err
	}
	f, err := startFeed(r.in, rp.nodes[0].asDaemon(), r.nextBase, mixedRate, true)
	if err != nil {
		return err
	}
	dash, probeConn := newConn(benchTransport(rp.rec)), newConn(benchTransport(rp.rec))
	defer dash.close()
	defer probeConn.close()
	routerURL := "http://" + rp.router
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		runProbe(routerURL, probeConn, f.g.hours, f.stop, func() bool { return false })
	}()
	time.Sleep(time.Second) // warm-up
	half := time.Duration(r.opt.seconds) * time.Second / 2
	urls := dashboardURLs(r.in.fixtureEnd)
	dashboard := func(traced bool) *queryStats {
		halfStop := make(chan struct{})
		rp.rec.enabled.Store(traced)
		time.AfterFunc(half, func() { close(halfStop) })
		qs := runDashboard(routerURL, urls, dash, halfStop, func() bool { return true })
		rp.rec.enabled.Store(false)
		return qs
	}
	off := dashboard(false)
	on := dashboard(true)
	if err := f.finish(nil); err != nil {
		return err
	}
	r.overhead(median(off.latMS), median(on.latMS), false)
	return nil
}

// reportSpans turns the recorded spans into the seam (S) metrics and
// writes the span file.
func (r *run) reportSpans(rp *replica) error {
	rp.rec.mu.Lock()
	spans := rp.rec.spans
	rp.rec.mu.Unlock()

	self, traces, gap := budget(spans, "bench.request")
	for span, name := range map[string]string{
		"bench.request":    "bench.client_self_us",
		"api.router_serve": "api.router_serve_self_us",
		"cluster.fanout":   "cluster.fanout_self_us",
		"client.rtt":       "client.rtt_self_us",
		"api.shard_serve":  "api.shard_serve_self_us",
	} {
		r.set(name, self[span], "us")
	}
	var storeSelf float64
	for name, v := range self {
		if strings.HasPrefix(name, "store.") {
			storeSelf += v
		}
	}
	r.set("store.serve_self_us", storeSelf, "us")
	r.set("bench.trace_selfsum_gap_pct", gap, "%")
	if traces > 0 {
		var total float64
		for _, v := range self {
			total += v
		}
		r.note("traced %d requests; mean root %.0f µs = Σ self times on the critical path (worst per-request gap %.3f%%)", traces, total, gap)
	}
	for _, class := range []string{"1d_hour", "7d_hour", "30d_day", "364d_hour", "364d_day", "364d_week"} {
		r.set("store.query_"+class+"_us", meanDurUS(spans, "store.query_"+class), "us")
	}
	r.set("store.version_us", meanDurUS(spans, "store.version"), "us")
	if q := rp.queries.queries.Load(); q > 0 {
		r.set("store.frames_per_query", float64(rp.queries.frames.Load())/float64(q), "count")
	}
	if recs := rp.appends.records.Load(); recs > 0 {
		r.set("store.append_ns_per_rec", float64(rp.appends.nanos.Load())/float64(recs), "ns")
		r.set("store.append_fsync_us_per_batch", float64(rp.appends.nanos.Load())/float64(rp.appends.batches.Load())/1e3, "us")
	}
	r.set("store.flush_ms", meanDurUS(spans, "store.flush")/1e3, "ms")

	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path, err := writeTrace(r.sb.root, &traceFile{Workload: r.opt.workload, Seed: r.opt.seed, BudgetUS: self, Spans: spans})
	if err != nil {
		return err
	}
	r.note("wrote %d spans to %s", len(spans), path)
	return nil
}
