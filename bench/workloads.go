package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// mixedRate is the open-loop ingest rate of mixed_steady, in records/s:
// about an eighth of what the node absorbs, so the run measures
// interference at a load the node handles, not a second saturation test.
const mixedRate = 100000

// mixedShardBuffer is collectord's -shard-buffer on mixed_steady, in
// batches per lane. The default 256 holds 150 ms of this load, and the
// reader drops what a full lane cannot take: every fsync runs under the
// store mutex, so one stall of the VM's disk (they reach half a second
// here) would turn into lost records in one run in dozens. With 4096 a
// stall of two seconds shows as visible lag and nothing fails. An
// open-loop sender cannot slow down instead, as the closed loops do.
const mixedShardBuffer = 4096

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one workload run.
type run struct {
	opt   options
	sb    *sandbox
	in    *inputs
	m     map[string]metric
	notes []string

	collectordBin, routerBin string
	setupStart               time.Time

	attempted, failed int64
	problems          []string // correctness failures; empty means correct

	// clock measures what the host's CPUs get done beside the workload;
	// hostFactor is the measured window's reading (see hostclock.go).
	clock      *hostClock
	hostFactor float64

	// What the traced half of a -trace run picks up from the end-to-end
	// half: the fixture copies, a study-window trace for the direct
	// timings, and where mixed_steady's simulated time had got to.
	spec     *spec
	fx       *fixtureDirs
	sample   []netflow.Record
	nextBase time.Duration
}

func (r *run) set(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

func (r *run) sizes() sizes {
	if r.opt.quick {
		return quickSizes
	}
	return fullSizes
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// warmup is the unmeasured lead-in: caches fill, the window fills, the
// first checkpoint interval starts.
func warmup(seconds int) time.Duration {
	return time.Second + time.Duration(seconds)*time.Second/10
}

// procUsage is a CPU reading of a set of daemons.
func procUsage(ds []*daemon) (map[*daemon]float64, error) {
	out := make(map[*daemon]float64, len(ds))
	for _, d := range ds {
		s, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s cpu: %w", d.name, err)
		}
		out[d] = s
	}
	return out, nil
}

// scrapeDaemon fetches and lints one /metrics page, timing the fetch.
func scrapeDaemon(d *daemon) (*scrape, time.Duration, error) {
	t0 := time.Now()
	status, body, err := httpGet(controlClient, "http://"+d.http+"/metrics")
	took := time.Since(t0)
	if err != nil {
		return nil, took, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	if status != http.StatusOK {
		return nil, took, fmt.Errorf("%s /metrics: status %d", d.name, status)
	}
	s, err := parseMetrics(string(body))
	if err != nil {
		return nil, took, fmt.Errorf("%s: %w", d.name, err)
	}
	return s, took, nil
}

// windowMarks is the state captured on one side of the measured window.
type windowMarks struct {
	cpu     map[*daemon]float64
	nodes   []*scrape
	router  *scrape
	at      time.Time
	scrapes []time.Duration
}

func (r *run) mark(nodes []*daemon, router *daemon) (*windowMarks, error) {
	w := &windowMarks{at: time.Now()}
	var err error
	if w.cpu, err = procUsage(append(append([]*daemon(nil), nodes...), router)); err != nil {
		return nil, err
	}
	for _, n := range nodes {
		s, took, err := scrapeDaemon(n)
		if err != nil {
			return nil, err
		}
		w.nodes = append(w.nodes, s)
		w.scrapes = append(w.scrapes, took)
	}
	s, _, err := scrapeDaemon(router)
	if err != nil {
		return nil, err
	}
	w.router = s
	return w, nil
}

// measure holds the window open for the run length, sampling the nodes'
// queue depth once a second, and returns the marks on either side.
func (r *run) measure(nodes []*daemon, router *daemon, begin, end func()) (w0, w1 *windowMarks, depthMax float64, err error) {
	time.Sleep(warmup(r.opt.seconds))
	if w0, err = r.mark(nodes, router); err != nil {
		return nil, nil, 0, err
	}
	r.clock.lap() // the warm-up's readings are not the window's
	begin()
	deadline := time.Now().Add(time.Duration(r.opt.seconds) * time.Second)
	var scrapes []time.Duration
	for tick := time.Now().Add(time.Second); tick.Before(deadline); tick = tick.Add(time.Second) {
		time.Sleep(time.Until(tick))
		for _, n := range nodes {
			s, took, err := scrapeDaemon(n)
			if err != nil {
				return nil, nil, 0, err
			}
			scrapes = append(scrapes, took)
			depthMax = max(depthMax, s.maxOf("ingest_shard_queue_depth"))
		}
	}
	time.Sleep(time.Until(deadline))
	end()
	var unitUS float64
	var n int
	r.hostFactor, unitUS, n = r.clock.lap()
	r.set("bench.host_unit_us", unitUS, "us")
	r.note("host clock: the fixed unit took %.0f µs of CPU (median of %d) against a nominal %s: factor %.3f", unitUS, n, nominalHostUnit, r.hostFactor)
	if w1, err = r.mark(nodes, router); err != nil {
		return nil, nil, 0, err
	}
	w1.scrapes = append(w1.scrapes, scrapes...)
	return w0, w1, depthMax, nil
}

// ---- shared reporting ----

// reportDaemons fills CPU, memory and the metrics read from the running
// daemons between the two marks. ops is the workload's operation count
// inside the window.
func (r *run) reportDaemons(nodes []*daemon, router *daemon, w0, w1 *windowMarks, depthMax float64, ops float64) error {
	secs := w1.at.Sub(w0.at).Seconds()
	var nodeCPU, nodeRSS float64
	for _, n := range nodes {
		nodeCPU += w1.cpu[n] - w0.cpu[n]
		mb, err := peakRSSMB(n.cmd.Process.Pid)
		if err != nil {
			return err
		}
		nodeRSS += mb
	}
	routerCPU := w1.cpu[router] - w0.cpu[router]
	routerRSS, err := peakRSSMB(router.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", nodeRSS+routerRSS, "MB")
	if ops > 0 {
		r.set("cpu_s_per_mop", (nodeCPU+routerCPU)/(ops/1e6), "s")
		r.set("ops_per_s", ops/secs, "1/s")
	}
	r.set("collectord.cpu_s", nodeCPU, "s")
	r.set("collectord.rss_peak_mb", nodeRSS, "MB")
	r.set("queryrouterd.cpu_s", routerCPU, "s")
	r.set("queryrouterd.rss_peak_mb", routerRSS, "MB")

	// Counters and histograms: sums over the nodes, deltas over the window.
	delta := func(name, labels string) float64 {
		var d float64
		for i := range nodes {
			d += w1.nodes[i].value(name, labels) - w0.nodes[i].value(name, labels)
		}
		return d
	}
	quantUS := func(family string, q float64) float64 {
		// Quantiles do not add across nodes; report the slowest node's.
		var worst float64
		for i := range nodes {
			if v, ok := histQuantile(w0.nodes[i].buckets(family, ""), w1.nodes[i].buckets(family, ""), q); ok {
				worst = max(worst, v*1e6)
			}
		}
		return worst
	}
	r.set("ingest.decode_p50_us", quantUS("ingest_decode_seconds", 0.5), "us")
	r.set("ingest.batch_p50_us", quantUS("ingest_batch_seconds", 0.5), "us")
	r.set("ingest.batch_p99_us", quantUS("ingest_batch_seconds", 0.99), "us")
	r.set("ingest.queue_depth_max", depthMax, "count")
	r.set("ingest.dropped_records", delta("ingest_records_dropped_total", ""), "count")
	r.set("ingest.decode_errors", delta("ingest_decode_errors_total", ""), "count")
	r.set("ingest.seq_lost", delta("ingest_seq_lost_total", ""), "count")
	r.set("ingest.socket_errors", delta("ingest_socket_errors_total", ""), "count")
	r.set("ingest.sink_errors", delta("ingest_sink_errors_total", ""), "count")
	r.set("ingest.records", delta("ingest_records_total", ""), "count")

	appended := delta("store_appended_records_total", "")
	fsyncs := delta("store_fsync_seconds_count", "")
	if appended > 0 {
		r.set("store.fsyncs_per_krec", fsyncs/(appended/1000), "1/krec")
	} else {
		r.set("store.fsyncs_per_krec", 0, "1/krec")
	}
	if fsyncs > 0 {
		r.set("store.fsync_mean_us", delta("store_fsync_seconds_sum", "")/fsyncs*1e6, "us")
	} else {
		r.set("store.fsync_mean_us", 0, "us")
	}
	ckpts := delta("store_checkpoint_seconds_count", "")
	r.set("store.checkpoints", ckpts, "count")
	if ckpts > 0 {
		r.set("store.checkpoint_ms", delta("store_checkpoint_seconds_sum", "")/ckpts*1e3, "ms")
	} else {
		r.set("store.checkpoint_ms", 0, "ms")
	}
	r.set("store.compacted_frames", delta("store_compacted_frames_total", ""), "count")
	r.set("store.tier_folds", delta("store_tier_folds_day_total", "")+delta("store_tier_folds_week_total", ""), "count")

	// Cache effectiveness over every API server in the path.
	hits, misses := delta("api_cache_hits_total", ""), delta("api_cache_misses_total", "")
	hits += w1.router.value("api_cache_hits_total", "") - w0.router.value("api_cache_hits_total", "")
	misses += w1.router.value("api_cache_misses_total", "") - w0.router.value("api_cache_misses_total", "")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("api.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	data := func(s0, s1 *scrape) float64 {
		var n float64
		for _, ep := range []string{"v1_query", "v1_snapshot"} {
			l := `{endpoint="` + ep + `"}`
			n += s1.value("api_requests_total", l) - s0.value("api_requests_total", l)
		}
		return n
	}
	routerData := data(w0.router, w1.router)
	routerNM := w1.router.value("api_not_modified_total", "") - w0.router.value("api_not_modified_total", "")
	r.set("api.not_modified_ratio", ratio(routerNM, routerData), "ratio")
	r.set("bench.router_data_rps", routerData/secs, "1/s")
	r.set("cluster.degraded_fanouts",
		w1.router.value("cluster_degraded_fanouts_total", "")-w0.router.value("cluster_degraded_fanouts_total", ""), "count")

	var gc float64
	for i := range nodes {
		gc = max(gc, w1.nodes[i].value("go_gc_pause_p99_seconds", ""))
	}
	r.set("collectord.gc_pause_p99_ms", gc*1e3, "ms")
	var scrapeMS []float64
	for _, d := range w1.scrapes {
		scrapeMS = append(scrapeMS, ms(d))
	}
	r.set("obs.scrape_ms", median(scrapeMS), "ms")
	return nil
}

// tailOf is the percentile each workload reports as latency_tail_ms: the
// highest that a 15 s run leaves ten samples beyond on a slow day as
// well, and no higher than repeats. ingest_only times tens of thousands
// of datagrams; ingest_fsync_always 2700 to 5900 as the VM's disk
// drifts, and a disk three times slower would leave p99 short of its
// 1000; query_only serves 650 to 1050 requests, where p90 repeats
// within 15% over ten seeds, p95 within 16–25% and p97 within 20%; the
// mixed_steady dashboard serves 230 to 290.
var tailOf = map[string]float64{
	"ingest_only":         0.99,
	"ingest_fsync_always": 0.95,
	"query_only":          0.90,
	"mixed_steady":        0.90,
}

// reportLatency fills the latency metrics from the samples.
func (r *run) reportLatency(samplesMS []float64, what string) {
	s := sortedCopy(samplesMS)
	p50, _ := percentile(s, 0.5)
	p := tailOf[r.opt.workload]
	tail, ok := percentile(s, p)
	if !ok {
		r.problem("only %d %s samples: fewer than %d beyond p%.0f, the run is too short to report a tail", len(s), what, minBeyond, p*100)
	}
	r.set("latency_p50_ms", p50, "ms")
	r.set("latency_tail_ms", tail, "ms")
	// p99 is reported beside it whenever the sample carries it.
	p99, at := tailPercentile(s, 0.99, 0.95, 0.9)
	r.set("latency_p99_ms", p99, "ms")
	r.note("latency over %d %s samples: latency_tail_ms is p%.0f, latency_p99_ms is reported at p%.0f", len(s), what, p*100, at*100)
}

// ---- ack polling ----

// ackPoller publishes the node's processed+dropped count to the
// generator every 2 ms and turns sampled send marks into latencies.
type ackPoller struct {
	latMS     []float64
	measuring atomic.Bool
	err       error
}

// writeOff decides when unacknowledged records are lost for good: when
// the node has had them neither processed nor queued for ackStall on
// end. A node that is merely slow (a disk stall under -fsync always)
// still has them queued and keeps the window shut; opening it then would
// put a second window on lanes that hold one, and the overflow, being
// acknowledged at once as dropped, would only speed the sender up.
type writeOff struct {
	lastAcked uint64
	idleSince time.Time // zero unless the node sits idle on unacknowledged records
	idleSent  uint64    // what had been sent when it went idle
}

// observe takes one poll of the node — what had been sent before the
// poll went out, what the node has decoded (records) and acknowledged,
// what is written off so far — and reports the new written-off total
// once the node has sat idle on outstanding records for ackStall.
func (w *writeOff) observe(now time.Time, sent, records, acked, off uint64) (uint64, bool) {
	idle := acked == w.lastAcked && records == acked && sent > acked+off
	w.lastAcked = acked
	switch {
	case !idle:
		w.idleSince = time.Time{}
	case w.idleSince.IsZero():
		w.idleSince, w.idleSent = now, sent
	case now.Sub(w.idleSince) > ackStall:
		w.idleSince = time.Time{}
		return w.idleSent - acked, true
	}
	return off, false
}

func (p *ackPoller) run(node *daemon, g *generator, stop <-chan struct{}) {
	c := newConn(nil)
	defer c.close()
	url := "http://" + node.http + "/api/v1/stats"
	var pending *sentMark
	var stats struct {
		Ingest struct {
			Records   uint64 `json:"records"`
			Processed uint64 `json:"processed"`
			Dropped   uint64 `json:"dropped_records"`
		} `json:"ingest"`
	}
	var lost writeOff
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		sentBefore := g.sent.Load()
		r, err := c.get(url, "")
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			err = json.Unmarshal(r.body, &stats)
		}
		if err != nil {
			p.err = fmt.Errorf("polling %s: %w", url, err)
			return
		}
		now := time.Now()
		acked := stats.Ingest.Processed + stats.Ingest.Dropped
		g.acked.Store(acked)
		off, changed := lost.observe(now, sentBefore, stats.Ingest.Records, acked, g.writtenOff.Load())
		if changed {
			g.writtenOff.Store(off)
		}
		for {
			if pending == nil {
				select {
				case m := <-g.marks:
					pending = &m
				default:
				}
			}
			if pending == nil || pending.cum > acked+off {
				break
			}
			if p.measuring.Load() {
				p.latMS = append(p.latMS, ms(now.Sub(pending.at)))
			}
			pending = nil
		}
	}
}

// feed is a running generator with its acknowledgement poller. Callers
// may hang further goroutines on stop and wg; finish ends them all.
type feed struct {
	g       *generator
	poller  *ackPoller
	genStop chan struct{} // ends the sender
	genDone chan struct{}
	stop    chan struct{} // ends the poller and whatever else hangs on the feed
	wg      sync.WaitGroup
	genErr  error
}

// startFeed starts sending to node from simulated offset base: closed
// loop when rate is 0, open loop at rate records/s otherwise. With hours
// set the generator announces every simulated hour it opens.
func startFeed(in *inputs, node *daemon, base time.Duration, rate float64, hours bool) (*feed, error) {
	g, err := newGenerator(in, node.udp, base)
	if err != nil {
		return nil, err
	}
	if hours {
		g.hours = make(chan hourMark, 64) // a probe busy for a second misses ≈36 hours; it only wants the newest
	}
	f := &feed{g: g, poller: &ackPoller{}, genStop: make(chan struct{}), genDone: make(chan struct{}), stop: make(chan struct{})}
	f.wg.Add(1)
	go func() { defer f.wg.Done(); f.poller.run(node, g, f.stop) }()
	go func() {
		defer close(f.genDone)
		if rate > 0 {
			f.genErr = g.runOpen(f.genStop, rate)
		} else {
			f.genErr = g.runClosed(f.genStop)
		}
	}()
	return f, nil
}

// measuring switches the sampled statistics of sender and poller.
func (f *feed) measuring(on bool) {
	f.g.measuring.Store(on)
	f.poller.measuring.Store(on)
}

// finish stops the sender, waits (up to 5 s, and only after a clean
// window) until the node has counted everything sent as processed,
// dropped or written off, then stops every goroutine hanging on the
// feed and returns what went wrong, windowErr included. The order
// matters: a node told to drain closes its socket first, and a datagram
// still in the socket buffer then is lost below every counter.
func (f *feed) finish(windowErr error) error {
	close(f.genStop)
	<-f.genDone
	if windowErr == nil {
		deadline := time.Now().Add(5 * time.Second)
		for f.g.acked.Load()+f.g.writtenOff.Load() < f.g.sent.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	close(f.stop)
	f.wg.Wait()
	f.g.close()
	return errors.Join(windowErr, f.genErr, f.poller.err)
}

// ---- the ingest workloads ----

// drainRestartCheck is the correctness half of every ingest workload:
// SIGTERM the node (drain + final checkpoint), restart it on the same
// directory and address, and compare the routed state with the
// reference.
func (r *run) drainRestartCheck(node *daemon, router *daemon, args []string, dataDir string, base time.Duration, sent uint64, prior *streaming.Snapshot) error {
	if err := node.stop(60 * time.Second); err != nil {
		return err
	}
	if size, err := dirBytes(dataDir); err == nil && sent > 0 {
		r.set("store.disk_bytes_per_rec", float64(size)/float64(sent), "B")
	}
	t0 := time.Now()
	for i, a := range args {
		if a == "-http" {
			args[i+1] = node.http // the router still points here
		}
	}
	again, err := r.sb.startCollectord(r.collectordBin, args)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.set("collectord.restart_ms", ms(time.Since(t0)), "ms")
	got, err := fetchRouted(router)
	if err != nil {
		return err
	}
	lost, err := checkIngested(got, r.in, base, sent, prior)
	if err != nil {
		r.problem("%v", err)
	}
	if lost > 0 {
		r.failed += lost
	}
	r.attempted += int64(sent)
	loss := float64(max(lost, 0)) / float64(max(sent, 1))
	r.set("loss_ratio", loss, "ratio")
	r.note("sent %d records, %d missing from the routed census after drain and restart (loss_ratio %.6f)", sent, max(lost, 0), loss)
	return again.stop(60 * time.Second)
}

func (r *run) runIngest(policy string) error {
	dataDir := filepath.Join(r.sb.dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	fs, err := fsName(dataDir)
	if err != nil {
		return err
	}
	if policy == "always" && fs == "tmpfs" {
		return fmt.Errorf("ingest_fsync_always needs a real filesystem: %s is on tmpfs, where fsync is free", dataDir)
	}
	in, err := newInputs(r.sizes(), r.opt.seed, r.sb.dir, true, nil)
	if err != nil {
		return err
	}
	r.in = in
	args := collectordArgs(in, dataDir, "-fsync", policy, "-fsync-interval", "1s", "-checkpoint-interval", "5s")
	node, err := r.sb.startCollectord(r.collectordBin, args)
	if err != nil {
		return err
	}
	router, err := r.sb.startRouter(r.routerBin, []*daemon{node})
	if err != nil {
		return err
	}
	r.setupDone(node)

	f, err := startFeed(in, node, 0, 0, false)
	if err != nil {
		return err
	}
	g, poller := f.g, f.poller
	var acked0, acked1 uint64
	w0, w1, depth, err := r.measure([]*daemon{node}, router,
		func() { acked0 = g.acked.Load(); f.measuring(true) },
		func() { acked1 = g.acked.Load(); f.measuring(false) })
	if err = f.finish(err); err != nil {
		return err
	}

	ops := float64(acked1 - acked0)
	if err := r.reportDaemons([]*daemon{node}, router, w0, w1, depth, ops); err != nil {
		return err
	}
	r.set("sustained_rps", r.m["ops_per_s"].Value, "1/s")
	r.reportLatency(poller.latMS, "send-to-processed")
	if policy == "always" {
		r.normalizeToNominalFsync()
	} else {
		r.normalizeToNominalHost([]string{"ops_per_s"}, []string{"cpu_s_per_mop", "latency_p50_ms", "latency_tail_ms"})
	}
	secs := w1.at.Sub(w0.at).Seconds()
	blocked := g.blocked.Seconds() / secs
	r.set("bench.gen_blocked_share", blocked, "ratio")
	if blocked < 0.1 {
		r.problem("generator-bound: the sender waited on the window only %.1f%% of the time, so the collector was never saturated", 100*blocked)
	}
	if n := g.writtenOff.Load(); n > 0 {
		r.note("%d records written off: sent, but neither queued nor processed by a collector idle for %s (lost below its counters)", n, ackStall)
	}
	// The WAL holds exactly the records since the last checkpoint.
	if tail := w1.nodes[0].value("store_tail_records", ""); tail > 0 {
		r.set("store.wal_bytes_per_rec", w1.nodes[0].value("store_wal_bytes", "")/tail, "B")
	}
	return r.drainRestartCheck(node, router, args, dataDir, 0, g.sent.Load(), nil)
}

// nominalFsync is the fsync latency ingest_fsync_always reports its
// end-to-end numbers at.
const nominalFsync = 250 * time.Microsecond

// normalizeToNominalFsync rescales the time-derived end-to-end numbers
// of ingest_fsync_always to a disk whose fsync takes nominalFsync. With
// one fsync per 30-record batch under one mutex the workload is bound by
// fsync latency alone: across runs, records/s × mean fsync time is
// constant to under 1%, while the VM's disk drifts by 10–30% between
// runs minutes apart. What the program controls — how many records it
// makes durable per unit of fsync time — survives the rescaling; what
// the host's disk happened to do does not. The mean is the collector's
// own store_fsync_seconds over the window; the raw rate stays visible
// as sustained_rps next to store.fsync_mean_us.
func (r *run) normalizeToNominalFsync() {
	mean := r.m["store.fsync_mean_us"].Value
	if mean <= 0 {
		r.problem("ingest_fsync_always observed no fsync in store_fsync_seconds: nothing to normalize by")
		return
	}
	k := mean / us(nominalFsync) // >1 on a slower disk
	scale := func(name string, f float64) {
		m := r.m[name]
		r.set(name, m.Value*f, m.Unit)
	}
	scale("ops_per_s", k)
	scale("cpu_s_per_mop", 1/k)
	scale("latency_p50_ms", 1/k)
	scale("latency_tail_ms", 1/k)
	r.note("mean fsync %.0f µs; ops_per_s, cpu_s_per_mop and latency_* are rescaled to a nominal %s fsync (factor %.3f)", mean, nominalFsync, k)
}

// normalizeToNominalHost rescales CPU-bound, time-derived end-to-end
// numbers to a host on which the clock's unit takes nominalHostUnit:
// rates are multiplied by the window's factor, times divided by it. The
// raw figures stay in the per-layer set (sustained_rps, query_rps,
// latency_p99_ms) next to bench.host_unit_us.
func (r *run) normalizeToNominalHost(rates, times []string) {
	k := r.hostFactor
	if k <= 0 {
		r.problem("the host clock took no reading inside the window: nothing to normalize by")
		return
	}
	for _, name := range rates {
		m := r.m[name]
		r.set(name, m.Value*k, m.Unit)
	}
	for _, name := range times {
		m := r.m[name]
		r.set(name, m.Value/k, m.Unit)
	}
	r.note("%v and %v are rescaled to the nominal host (factor %.3f)", rates, times, k)
}

// setupDone stamps setup_s and logs the environment the node reported.
func (r *run) setupDone(node *daemon) {
	// Flush what setup wrote (fixtures, the sidecar) before the clock
	// stops, so its writeback does not compete with the measured window.
	syscall.Sync()
	k, _, _ := r.clock.lap()
	if k <= 0 {
		r.problem("the host clock took no reading during set-up: nothing to normalize setup_s by")
		k = 1
	}
	r.set("setup_s", time.Since(r.setupStart).Seconds()/k, "s")
	if node != nil {
		if l := node.stderrLine("socket receive buffer"); l != "" {
			r.note("collectord: %s", l)
		}
	}
}

// ---- query_only ----

func (r *run) runQueryOnly() error {
	res, err := runSim(r.opt.seed, r.sizes().fixtureScale)
	if err != nil {
		return err
	}
	in, err := newInputs(r.sizes(), r.opt.seed, r.sb.dir, false, res)
	if err != nil {
		return err
	}
	r.in = in
	fx, err := buildFixtures(in, res, r.sb.dir, true)
	if err != nil {
		return err
	}
	r.fx, r.sample = fx, res.Records
	nodes := make([]*daemon, fixtureShards)
	for i, dir := range fx.shards {
		args := collectordArgs(in, dir, "-shard", fmt.Sprintf("%d/%d", i, fixtureShards), "-checkpoint-interval", "0")
		if nodes[i], err = r.sb.startCollectord(r.collectordBin, args); err != nil {
			return err
		}
	}
	router, err := r.sb.startRouter(r.routerBin, nodes)
	if err != nil {
		return err
	}
	r.setupDone(nil)

	conns := []*conn{newConn(nil), newConn(nil)}
	defer conns[0].close()
	defer conns[1].close()
	stop := make(chan struct{})
	var measuring atomic.Bool
	var qs *queryStats
	done := make(chan struct{})
	go func() {
		qs = runQueryLoad("http://"+router.http, r.opt.seed, in.days, conns, stop, measuring.Load)
		close(done)
	}()
	w0, w1, depth, err := r.measure(nodes, router, func() { measuring.Store(true) }, func() { measuring.Store(false) })
	close(stop)
	<-done
	if err != nil {
		return err
	}
	if err := r.reportDaemons(nodes, router, w0, w1, depth, float64(qs.attempted-qs.failed)); err != nil {
		return err
	}
	r.reportQueries(qs)
	r.reportLatency(qs.latMS, "query")
	r.set("query_rps", r.m["ops_per_s"].Value, "1/s")
	r.normalizeToNominalHost([]string{"ops_per_s"}, []string{"cpu_s_per_mop", "latency_p50_ms", "latency_tail_ms"})

	ref, err := newReference(in, fx.whole)
	if err != nil {
		return err
	}
	defer ref.close()
	checked, unnamed, err := checkQueries("http://"+router.http, ref, qs)
	if err != nil {
		r.problem("%v", err)
	}
	r.note("%d of %d distinct in-window URLs re-fetched and compared with the in-process reference", checked, len(qs.sums))
	if unnamed > 0 {
		r.note("known divergence: %d of those answers lost their long-horizon district names through the router (the fleet re-attaches names only from the raw residual)", unnamed)
	}
	errPct, err := distinctErrPct("http://"+router.http, in)
	if err != nil {
		r.problem("%v", err)
	} else if errPct > 3 {
		r.problem("day-resolution distinct-/24 estimate is %.2f%% off the exact count %d", errPct, in.distinctKept)
	}
	r.set("sketch.distinct_err_pct", errPct, "%")
	if n := r.m["ingest.records"].Value; n != 0 {
		r.problem("query_only is supposed to leave ingest idle, but the nodes decoded %v records", n)
	}
	for _, d := range append(nodes, router) {
		if err := d.stop(30 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// reportQueries fills the request-side numbers of a query load.
func (r *run) reportQueries(qs *queryStats) {
	r.attempted += qs.attempted
	r.failed += qs.failed
	if qs.firstErr != "" {
		r.note("first failed request: %s", qs.firstErr)
	}
	if qs.slow > 0 {
		r.note("%d of %d requests took longer than %s: counted in query_slow_ratio, not as failed operations", qs.slow, qs.attempted, slowLimit)
	}
	failRatio, slowRatio := 0.0, 0.0
	if qs.attempted > 0 {
		failRatio = float64(qs.failed) / float64(qs.attempted)
		slowRatio = float64(qs.slow) / float64(qs.attempted)
	}
	r.set("query_fail_ratio", failRatio, "ratio")
	r.set("query_slow_ratio", slowRatio, "ratio")
	b, _ := percentile(sortedCopy(qs.bytes), 0.5)
	r.set("api.resp_bytes_p50", b, "B")
	sh := sortedCopy(qs.shardMS)
	p50, _ := percentile(sh, 0.5)
	p99, _ := tailPercentile(sh, 0.99, 0.95, 0.9)
	r.set("cluster.shard_dur_p50_ms", p50, "ms")
	r.set("cluster.shard_dur_p99_ms", p99, "ms")
}

// ---- mixed_steady ----

func (r *run) runMixed() error {
	res, err := runSim(r.opt.seed, r.sizes().fixtureScale)
	if err != nil {
		return err
	}
	in, err := newInputs(r.sizes(), r.opt.seed, r.sb.dir, true, res)
	if err != nil {
		return err
	}
	r.in = in
	fx, err := buildFixtures(in, res, r.sb.dir, false)
	if err != nil {
		return err
	}
	r.fx, r.sample = fx, res.Records
	prior, err := fixtureSnapshot(in, fx.whole)
	if err != nil {
		return err
	}
	args := collectordArgs(in, fx.whole, "-fsync", "interval", "-fsync-interval", "1s", "-checkpoint-interval", "5s",
		"-shard-buffer", strconv.Itoa(mixedShardBuffer))
	node, err := r.sb.startCollectord(r.collectordBin, args)
	if err != nil {
		return err
	}
	router, err := r.sb.startRouter(r.routerBin, []*daemon{node})
	if err != nil {
		return err
	}
	r.setupDone(node)

	// Simulated time continues the day after the fixture ends.
	base := time.Duration(in.days+1) * dayDuration
	f, err := startFeed(in, node, base, mixedRate, true)
	if err != nil {
		return err
	}
	g := f.g
	routerURL := "http://" + router.http
	dash, probeConn := newConn(nil), newConn(nil)
	defer dash.close()
	defer probeConn.close()
	var (
		qs *queryStats
		ps *probeStats
	)
	f.wg.Add(2)
	go func() {
		defer f.wg.Done()
		qs = runDashboard(routerURL, dashboardURLs(in.fixtureEnd), dash, f.stop, g.measuring.Load)
	}()
	go func() { defer f.wg.Done(); ps = runProbe(routerURL, probeConn, g.hours, f.stop, g.measuring.Load) }()

	var sent0, sent1 uint64
	w0, w1, depth, err := r.measure([]*daemon{node}, router,
		func() { sent0 = g.sent.Load(); f.measuring(true) },
		func() { sent1 = g.sent.Load(); f.measuring(false) })
	if err = f.finish(err); err != nil {
		return err
	}

	if err := r.reportDaemons([]*daemon{node}, router, w0, w1, depth, float64(sent1-sent0)); err != nil {
		return err
	}
	r.reportQueries(qs)
	r.reportLatency(qs.latMS, "dashboard")
	secs := w1.at.Sub(w0.at).Seconds()
	r.set("query_rps", float64(qs.attempted-qs.failed)/secs, "1/s")
	// ops_per_s is the sender's schedule, and the closed-loop dashboard
	// fills whatever CPU ingest leaves, so cpu_s_per_mop reads the same
	// on a fast host and a slow one: only the latencies follow the host.
	r.normalizeToNominalHost(nil, []string{"latency_p50_ms", "latency_tail_ms"})

	late := sortedCopy(g.lateMS)
	lateP99, _ := tailPercentile(late, 0.99, 0.95)
	r.set("bench.gen_late_p99_ms", lateP99, "ms")
	lag := sortedCopy(ps.lagMS)
	lagP50, _ := percentile(lag, 0.5)
	lagTail, p := tailPercentile(lag, 0.99, 0.95, 0.9)
	r.set("visible_lag_p50_ms", lagP50, "ms")
	r.set("visible_lag_p99_ms", lagTail, "ms")
	r.note("visible lag over %d hours (%d polls); tail reported at p%.0f", len(lag), ps.polls, p*100)
	r.attempted += ps.attempted
	r.failed += ps.failed
	if ps.firstErr != "" {
		r.note("first invisible hour: %s", ps.firstErr)
	}
	if tail := w1.nodes[0].value("store_tail_records", ""); tail > 0 {
		r.set("store.wal_bytes_per_rec", w1.nodes[0].value("store_wal_bytes", "")/tail, "B")
	}
	// A traced half continues two passes on, so simulated time still
	// only moves forward.
	r.nextBase = base + time.Duration(g.pass+2)*passDuration
	return r.drainRestartCheck(node, router, args, fx.whole, base, g.sent.Load(), prior)
}

// fixtureSnapshot reads the fixture's full state before the daemon
// takes the directory over: the part of the final census the generator
// did not send.
func fixtureSnapshot(in *inputs, dir string) (*streaming.Snapshot, error) {
	st, err := store.Open(dir, store.Options{Analytics: in.acfg, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Snapshot(), nil
}

// ---- dispatch ----

var workloadNames = []string{"ingest_only", "ingest_fsync_always", "query_only", "mixed_steady"}

// runWorkload runs one workload end to end and returns its result.
func runWorkload(opt options, sp *spec) (*result, error) {
	start := time.Now()
	sb, err := newSandbox()
	if err != nil {
		return nil, err
	}
	defer sb.Close()
	r := &run{opt: opt, sb: sb, spec: sp, m: make(map[string]metric), setupStart: start, clock: startHostClock()}
	defer r.clock.close()
	if err := logEnvironment(r); err != nil {
		return nil, err
	}
	if r.collectordBin, r.routerBin, err = sb.buildDaemons(); err != nil {
		return nil, err
	}
	switch opt.workload {
	case "ingest_only":
		err = r.runIngest("interval")
	case "ingest_fsync_always":
		err = r.runIngest("always")
	case "query_only":
		err = r.runQueryOnly()
	case "mixed_steady":
		err = r.runMixed()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		if err := r.runTraced(); err != nil {
			return nil, err
		}
	}
	res := &result{
		Workload:  opt.workload,
		Seed:      opt.seed,
		Seconds:   opt.seconds,
		Trace:     opt.trace,
		Correct:   len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.m,
		Notes:     r.notes,
		Problems:  r.problems,
		WallS:     time.Since(start).Seconds(),
	}
	return res, nil
}

// result is one run as written to -out files and printed.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	WallS     float64           `json:"wall_s"`
}
