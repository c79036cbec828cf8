package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	"cwatrace/internal/cluster"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// The traced run is an in-process replica of the daemons' wiring: the
// same ingest.Config, store.Options, api.Config and cluster.New calls
// cmd/collectord and cmd/queryrouterd make, with bench-owned decorators
// at the interface seams. Nothing inside the program is touched; spans
// inside the layers are a later change.

// inflight lets the decorators that receive no context (api.History and
// api.Live methods take none) find the handler span they run under:
// the handler registers itself under the request's range, the method
// looks the same range up. Two concurrent requests for one range may
// swap children; both then carry a child of the right shape.
type inflight struct {
	mu sync.Mutex
	m  map[string][]spanRef
}

func newInflight() *inflight { return &inflight{m: make(map[string][]spanRef)} }

func (f *inflight) add(key string, ref spanRef) {
	f.mu.Lock()
	f.m[key] = append(f.m[key], ref)
	f.mu.Unlock()
}

func (f *inflight) remove(key string, ref spanRef) {
	f.mu.Lock()
	refs := f.m[key]
	for i, r := range refs {
		if r == ref {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(f.m, key)
	} else {
		f.m[key] = refs
	}
	f.mu.Unlock()
}

// find returns the newest span registered under the first key that has
// one.
func (f *inflight) find(keys ...string) spanRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range keys {
		if refs := f.m[k]; len(refs) > 0 {
			return refs[len(refs)-1]
		}
	}
	return spanRef{}
}

func rangeKey(kind string, from, to time.Time) string {
	var f, t int64
	if !from.IsZero() {
		f = from.UnixNano()
	}
	if !to.IsZero() {
		t = to.UnixNano()
	}
	return fmt.Sprintf("%s|%d|%d", kind, f, t)
}

// requestKey classifies an API request the way the History and Live
// decorators will look it up.
func requestKey(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/query"):
		q := r.URL.Query()
		from, _ := store.ParseTime(q.Get("from"))
		to, _ := store.ParseTime(q.Get("to"))
		return rangeKey("query", from, to)
	case strings.HasSuffix(r.URL.Path, "/snapshot"):
		return rangeKey("snapshot", time.Time{}, time.Time{})
	case strings.HasSuffix(r.URL.Path, "/stats"):
		return rangeKey("stats", time.Time{}, time.Time{})
	}
	return "other"
}

// tracedHandler wraps an http.Handler in a span named name, parented
// under the caller's span when the request carries one.
func tracedHandler(rec *recorder, name string, reg *inflight, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := rec.begin(parseSpanHeader(r.Header.Get(spanHeader)), name)
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		if reg != nil {
			key := requestKey(r)
			reg.add(key, sp.ref())
			defer reg.remove(key, sp.ref())
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		sp.end()
	})
}

// tracedTransport wraps an http.RoundTripper: the span runs from the
// request going out until the response body is closed, so it covers the
// transfer, and its id rides to the server in spanHeader.
type tracedTransport struct {
	rec  *recorder
	name string
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.rec.begin(spanFrom(req.Context()), t.name)
	if sp == nil {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, sp.ref().header())
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	sp   *live
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.end() })
	return err
}

// tracedFanout wraps the router's api.Fanout.
type tracedFanout struct {
	api.Fanout
	rec *recorder
}

func (f tracedFanout) Query(ctx context.Context, from, to time.Time, res tier.Resolution) (*api.FanResult, error) {
	sp := f.rec.begin(spanFrom(ctx), "cluster.fanout")
	defer sp.end()
	return f.Fanout.Query(withSpan(ctx, sp), from, to, res)
}

func (f tracedFanout) Snapshot(ctx context.Context) (*api.FanResult, error) {
	sp := f.rec.begin(spanFrom(ctx), "cluster.fanout")
	defer sp.end()
	return f.Fanout.Snapshot(withSpan(ctx, sp))
}

func (f tracedFanout) Stats(ctx context.Context) (*api.FanStats, error) {
	sp := f.rec.begin(spanFrom(ctx), "cluster.fanout")
	defer sp.end()
	return f.Fanout.Stats(withSpan(ctx, sp))
}

// queryCounts are the work counts taken at the History seam.
type queryCounts struct {
	queries atomic.Int64
	frames  atomic.Int64 // raw frames merged plus tier frames selected
}

// tracedHistory wraps a shard's api.History.
type tracedHistory struct {
	api.History
	rec    *recorder
	reg    *inflight
	counts *queryCounts
}

// queryName names a QueryResolution span by span length and requested
// resolution, the classes the per-layer table reports.
func queryName(from, to time.Time, res tier.Resolution) string {
	if from.IsZero() || to.IsZero() {
		return fmt.Sprintf("store.query_open_%s", res)
	}
	return fmt.Sprintf("store.query_%dd_%s", int(to.Sub(from).Round(time.Hour)/dayDuration), res)
}

func (h tracedHistory) QueryResolution(from, to time.Time, res tier.Resolution) (*store.QueryResult, error) {
	sp := h.rec.begin(h.reg.find(rangeKey("query", from, to)), queryName(from, to, res))
	out, err := h.History.QueryResolution(from, to, res)
	sp.end()
	if sp != nil && err == nil {
		frames := out.Frames
		if out.LongHorizon != nil {
			frames += out.LongHorizon.TierFrames
		}
		h.counts.queries.Add(1)
		h.counts.frames.Add(int64(frames))
	}
	return out, err
}

func (h tracedHistory) Version(from, to time.Time) uint64 {
	sp := h.rec.begin(h.reg.find(rangeKey("query", from, to), rangeKey("snapshot", from, to)), "store.version")
	defer sp.end()
	return h.History.Version(from, to)
}

func (h tracedHistory) Snapshot() *streaming.Snapshot {
	sp := h.rec.begin(h.reg.find(rangeKey("snapshot", time.Time{}, time.Time{})), "store.snapshot")
	defer sp.end()
	return h.History.Snapshot()
}

// tracedLive wraps a shard's api.Live.
type tracedLive struct {
	api.Live
	rec *recorder
	reg *inflight
}

func (l tracedLive) Stats() ingest.Stats {
	sp := l.rec.begin(l.reg.find(rangeKey("stats", time.Time{}, time.Time{})), "ingest.stats")
	defer sp.end()
	return l.Live.Stats()
}

// appendCounts are the work counts taken at the Sink seam.
type appendCounts struct {
	batches atomic.Int64
	records atomic.Int64
	nanos   atomic.Int64
}

// tracedSink wraps the pipeline's ingest.Sink and Flusher: one root
// span per batch, i.e. per datagram.
type tracedSink struct {
	next interface {
		ingest.Sink
		ingest.Flusher
	}
	rec    *recorder
	counts *appendCounts
}

func (s tracedSink) Append(batch []netflow.Record) error {
	sp := s.rec.begin(spanRef{}, "store.append")
	err := s.next.Append(batch)
	if sp != nil {
		s.counts.batches.Add(1)
		s.counts.records.Add(int64(len(batch)))
		s.counts.nanos.Add(int64(sp.end()))
	}
	return err
}

func (s tracedSink) Flush() error {
	sp := s.rec.begin(spanRef{}, "store.flush")
	defer sp.end()
	return s.next.Flush()
}

// ---- the replica ----

// replicaNode is one in-process collectord: store, pipeline, API.
type replicaNode struct {
	st      *store.Store
	p       *ingest.Pipeline
	hs      *http.Server
	ln      net.Listener
	udp     string
	http    string
	stop    chan struct{}
	stopped sync.WaitGroup
}

// asDaemon presents the node to the helpers that address a daemon by
// its announced addresses.
func (n *replicaNode) asDaemon() *daemon {
	return &daemon{name: "replica node", http: n.http, udp: n.udp}
}

// replica is the whole in-process cluster plus its seam counters.
type replica struct {
	rec     *recorder
	nodes   []*replicaNode
	routerS *http.Server
	router  string // host:port
	appends *appendCounts
	queries *queryCounts
}

// obsStack mirrors the daemons' newObsStack with their default flags.
func obsStack() (*obs.Registry, *obs.Tracer, *obs.EventRing) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	tracer := obs.NewTracer(obs.TracerConfig{RingSize: 256, Policy: obs.Policy{Slow: 500 * time.Millisecond, KeepOneIn: 64}})
	tracer.RegisterMetrics(reg)
	events := obs.NewEventRing(512)
	events.RegisterMetrics(reg)
	return reg, tracer, events
}

func serve(h http.Handler) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return hs, ln, nil
}

// startNode wires one node as cmd/collectord does for
// -data-dir dir -workers 2 -fsync policy [-shard asn] -checkpoint-interval every.
func (rp *replica) startNode(in *inputs, dir, policy, shard string, checkpointEvery time.Duration) error {
	reg, tracer, events := obsStack()
	pol, err := store.ParseSyncPolicy(policy)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{
		Analytics:    in.acfg,
		SegmentBytes: 4 << 20,
		Sync:         pol,
		Tier:         true,
		Metrics:      reg,
		Tracer:       tracer,
		Events:       events,
	})
	if err != nil {
		return err
	}
	icfg := ingest.Config{
		Listen:    []string{"127.0.0.1:0"},
		Workers:   2,
		Analytics: in.acfg,
		Logf:      log.New(io.Discard, "", 0).Printf,
		Metrics:   reg,
		Tracer:    tracer,
		Events:    events,
		Sink:      tracedSink{st, rp.rec, rp.appends},
		SinkOnly:  true,
	}
	if shard != "" {
		asn, err := cluster.ParseAssignment(shard)
		if err != nil {
			st.Close()
			return err
		}
		icfg.ShardFilter = asn.Filter(in.acfg.DB)
	}
	if pol == store.SyncInterval {
		icfg.FlushInterval = time.Second
	}
	p, err := ingest.New(icfg)
	if err != nil {
		st.Close()
		return err
	}
	reqs := newInflight()
	srv, err := api.New(api.Config{
		Live:    tracedLive{p, rp.rec, reqs},
		History: tracedHistory{st, rp.rec, reqs, rp.queries},
		Metrics: reg,
		Tracer:  tracer,
	})
	if err != nil {
		p.Close()
		st.Close()
		return err
	}
	srv.Handle("/metrics", reg.Handler())
	hs, ln, err := serve(tracedHandler(rp.rec, "api.shard_serve", reqs, srv))
	if err != nil {
		p.Close()
		st.Close()
		return err
	}
	n := &replicaNode{st: st, p: p, hs: hs, ln: ln, udp: p.Addrs()[0], http: ln.Addr().String(), stop: make(chan struct{})}
	if checkpointEvery > 0 {
		n.stopped.Add(1)
		go func() {
			defer n.stopped.Done()
			t := time.NewTicker(checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-n.stop:
					return
				case <-t.C:
					sp := rp.rec.begin(spanRef{}, "store.checkpoint")
					_ = st.Checkpoint() // a failed checkpoint shows as sink errors and in the store's own log
					sp.end()
				}
			}
		}()
	}
	rp.nodes = append(rp.nodes, n)
	return nil
}

// startRouter wires the router as cmd/queryrouterd does, with the
// transport of its shard clients and the fan-out decorated.
func (rp *replica) startRouter() error {
	reg, tracer, events := obsStack()
	addrs := make([]string, len(rp.nodes))
	for i, n := range rp.nodes {
		addrs[i] = n.http
	}
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &tracedTransport{rp.rec, "client.rtt", &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4}},
	}
	fleet, err := cluster.New(addrs, cluster.Options{
		TopK:          topK,
		Timeout:       10 * time.Second,
		ClientOptions: &client.Options{HTTPClient: hc},
		Metrics:       reg,
		Events:        events,
	})
	if err != nil {
		return err
	}
	srv, err := api.New(api.Config{Fanout: tracedFanout{fleet, rp.rec}, Metrics: reg, Tracer: tracer})
	if err != nil {
		return err
	}
	srv.Handle("/metrics", reg.Handler())
	hs, ln, err := serve(tracedHandler(rp.rec, "api.router_serve", nil, srv))
	if err != nil {
		return err
	}
	rp.routerS, rp.router = hs, ln.Addr().String()
	return nil
}

// close drains the replica the way SIGTERM drains the daemons.
func (rp *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rp.routerS != nil {
		_ = rp.routerS.Shutdown(ctx)
	}
	for _, n := range rp.nodes {
		close(n.stop)
		n.stopped.Wait()
		_ = n.hs.Shutdown(ctx)
		_ = n.p.Close()
		_ = n.st.Close()
	}
}

// benchTransport is what the load connections of a traced run wrap
// their transport in: the root span of every request.
func benchTransport(rec *recorder) func(http.RoundTripper) http.RoundTripper {
	return func(next http.RoundTripper) http.RoundTripper {
		return &tracedTransport{rec, "bench.request", next}
	}
}
