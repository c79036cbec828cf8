// Command collectord is the live collector daemon of the reproduction:
// the ISP-vantage-point process that receives NFv9 export datagrams from
// border routers (or the simulator acting as load generator), pushes them
// through the bounded multi-worker ingest pipeline and keeps the paper's
// analyses — hourly Figure-2 series, spike detection, top-K prefixes,
// district rollups — continuously up to date.
//
// Every collector keeps its aggregates in one store (internal/store):
// every ingested batch is appended to a write-ahead log, the analytics
// state is checkpointed periodically (and on SIGTERM after the drain),
// and /api/v1/query serves historical time-range views merged from the
// checkpoint frames. With -data-dir the store is durable: a restart
// recovers the pre-crash state by replaying the WAL tail onto the latest
// checkpoints. Without it the store lives in a private temp dir
// (collectord-*) that nothing outlives the process in: it never fsyncs,
// grows with the history ingested like any store, and is removed after
// the drain (a SIGKILL leaves it behind).
//
// With -shard i/N the daemon runs as one node of an N-way cluster: the
// ingest pipeline keeps only the records this shard owns under the
// 401-district partition (internal/cluster) and drops the rest (counted
// as shard_filtered, not lost). A stateless cmd/queryrouterd in front of
// the fleet merges the shards back into responses byte-identical to a
// single collector's.
//
// Live state is exposed over HTTP through the versioned analytics API
// (internal/api): typed JSON with a structured error envelope, strong
// ETags for conditional GETs (If-None-Match -> 304), gzip, compact
// encoding by default (?pretty=1 opts into indentation), field
// selection and top-K truncation:
//
//	GET /api/v1/health           200 ok / 503 draining during shutdown
//	GET /api/v1/stats            pipeline counters + store gauges
//	GET /api/v1/snapshot         merged analytics snapshot
//	    ?fields=hourly,filters,spikes,prefixes,districts  section selection
//	    ?top=N                   truncate ranked lists    ?pretty=1  indent
//	GET /api/v1/query?from=&to=  historical range (RFC 3339 or unix
//	                             seconds; both bounds optional); same
//	                             fields/top/pretty params
//	GET /metrics                 Prometheus text format
//	GET /debug/traces[?id=ID]    flight recorder: tail-sampled span traces
//	GET /debug/events            flight recorder: one-shot event ring
//
// That is the whole HTTP surface; any other path is a plain 404. The
// /debug endpoints share the -http listener with /metrics; bind it to
// loopback or an internal interface, never publicly.
//
// On SIGINT/SIGTERM the daemon flips the health endpoint to 503
// draining, stops the sockets, drains every queued batch, checkpoints
// the store, lets the responses still in flight finish
// and prints the final snapshot summary.
//
// Usage:
//
//	collectord [-listen 127.0.0.1:2055[,addr2]] [-http 127.0.0.1:8055]
//	           [-workers N] [-geodb geodb.jsonl] [-window-hours H] [-topk K]
//	           [-shard i/N] [-data-dir DIR] [-fsync always|interval|never]
//	           [-fsync-interval D] [-checkpoint-interval D]
//	           [-segment-bytes N] [-http-log] [-pprof] [-slow-query D]
//	           [-trace-ring N] [-trace-slow D] [-trace-sample N]
//	           [-event-ring N]
//
//	collectord -demo [-quick] [-serve]
//
// Demo mode is the self-contained loopback smoke run behind
// `make ingest-demo`: it runs the simulator, replays the trace through an
// exporter pool into its own pipeline and temp-dir store over loopback
// UDP, and checks the store's aggregates against the batch internal/core
// analysis. With -serve the daemon then keeps serving that store over
// HTTP until SIGTERM — the self-contained target the api-smoke CI step
// curls.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/cluster"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/experiments"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
	"cwatrace/internal/sim"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:2055", "comma-separated UDP listen addresses")
		httpAddr    = flag.String("http", "127.0.0.1:8055", "HTTP snapshot/metrics address (empty disables)")
		workers     = flag.Int("workers", 0, "pipeline workers, one lane each (0 = all CPUs)")
		shardBuffer = flag.Int("shard-buffer", 0, "per-lane channel capacity in batches (0 = default)")
		geoPath     = flag.String("geodb", "", "geolocation sidecar enabling per-district rollups")
		windowHours = flag.Int("window-hours", entime.StudyHours()+24, "live sliding window length in hours (bounds what /api/v1/snapshot renders, not what the store keeps or a range query costs)")
		topK        = flag.Int("topk", 10, "active-prefix leaderboard size")
		shard       = flag.String("shard", "", "cluster shard assignment i/N (e.g. 0/3): keep only this node's records")
		demo        = flag.Bool("demo", false, "self-contained sim -> exporter -> pipeline loopback run")
		quick       = flag.Bool("quick", false, "smaller demo workload (CI smoke mode)")
		serve       = flag.Bool("serve", false, "with -demo: keep serving the demo state over HTTP after verification")
		httpLog     = flag.Bool("http-log", false, "log one access line per HTTP request")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the HTTP server")
		slowQuery   = flag.Duration("slow-query", 0, "log any request at least this slow (0 disables)")

		newObsStack = obs.StackFlags(flag.CommandLine)

		dataDir      = flag.String("data-dir", "", "durable store directory (empty: a private temp dir, never fsynced, removed at exit)")
		fsyncPolicy  = flag.String("fsync", "interval", "WAL fsync policy: always (a record counted as processed is on stable storage; one fsync per commit group, not per datagram), interval (fsync every -fsync-interval) or never (only on seal, checkpoint and shutdown)")
		fsyncEvery   = flag.Duration("fsync-interval", time.Second, "fsync cadence under -fsync=interval")
		ckptEvery    = flag.Duration("checkpoint-interval", 5*time.Minute, "checkpoint/compaction cadence (0 disables the ticker)")
		tierOn       = flag.Bool("tier", true, "fold long-horizon day/week tier frames at checkpoint time (enables resolution=day|week|auto queries)")
		segmentBytes = flag.Int64("segment-bytes", 4<<20, "WAL segment rotation size in bytes")
	)
	flag.Parse()

	// One observability stack for whichever mode runs below: the
	// registry, the flight recorder's trace/event rings, the SIGQUIT
	// crash dump and the panic dump on the main goroutine.
	o := newObsStack()
	obs.InstallCrashDump(o.Events, os.Stderr)
	defer obs.DumpOnPanic(o.Events, os.Stderr)

	acfg := streaming.Config{WindowHours: *windowHours, TopK: *topK}
	if *geoPath != "" {
		f, err := os.Open(*geoPath)
		if err != nil {
			fatal("opening geodb sidecar: %v", err)
		}
		db, err := geodb.Read(f)
		f.Close()
		if err != nil {
			fatal("reading geodb sidecar: %v", err)
		}
		acfg.DB = db
		acfg.Model = geo.Germany()
	}

	if *demo {
		p, st, err := runDemo(acfg, *workers, *quick)
		if err != nil {
			fatal("%v", err)
		}
		if *serve {
			// The drained pipeline's store is frozen, which makes it the
			// perfect conditional-GET demo: every ETag stays valid until
			// shutdown. Serve it until SIGTERM, then shut down gracefully:
			// health flips to 503 draining while in-flight responses
			// finish.
			p.RegisterMetrics(o.Reg) // safe: the demo pipeline is drained
			srv := newAPIServer(p, st, o, *httpLog, *slowQuery, *pprofOn)
			if err := srv.ServeUntilSignal(listenHTTP(*httpAddr), func() { fmt.Println("collectord: draining") }); err != nil {
				fatal("http: %v", err)
			}
		}
		cleanup()
		return
	}

	// One registry spans every layer, so /metrics is a single page:
	// ingest stage timings and counters, store durability gauges, API
	// latency histograms, runtime health, flight-recorder accounting.
	icfg := ingest.Config{
		Listen:      strings.Split(*listen, ","),
		Workers:     *workers,
		ShardBuffer: *shardBuffer,
		Logf:        log.Printf,
		Metrics:     o.Reg,
		Tracer:      o.Tracer,
		Events:      o.Events,
	}
	if *shard != "" {
		asn, err := cluster.ParseAssignment(*shard)
		if err != nil {
			fatal("%v", err)
		}
		icfg.ShardFilter = asn.Filter(acfg.DB)
		if icfg.ShardFilter != nil {
			fmt.Printf("collectord: cluster shard %s (district partition)\n", asn)
		}
	}

	pol, err := store.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		fatal("%v", err)
	}
	if *dataDir == "" {
		pol = store.SyncNever // nothing in a temp dir outlives the process
	}
	st, dir, err := openStore(*dataDir, store.Options{
		Analytics:    acfg,
		SegmentBytes: *segmentBytes,
		Sync:         pol,
		Tier:         *tierOn,
		Metrics:      o.Reg,
		Tracer:       o.Tracer,
		Events:       o.Events,
	})
	if err != nil {
		fatal("%v", err)
	}
	m := st.Metrics()
	fmt.Printf("collectord: store %s recovered %d checkpoint frames (%d records) and replayed %d WAL records\n",
		dir, m.RecoveredFrames, m.FrameRecords, m.RecoveredWALRecords)
	if m.TruncatedBytes > 0 {
		fmt.Printf("collectord: store truncated %d torn WAL bytes from the previous crash\n", m.TruncatedBytes)
	}
	// The store owns all aggregate state; the pipeline only counts.
	icfg.Sink = st
	if pol == store.SyncInterval {
		icfg.FlushInterval = *fsyncEvery
	}

	p, err := ingest.New(icfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("collectord: ingesting NFv9 on %s\n", strings.Join(p.Addrs(), ", "))

	var ln net.Listener
	if *httpAddr != "" {
		ln = listenHTTP(*httpAddr)
	}

	if *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for range t.C {
				if err := st.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "collectord: checkpoint: %v\n", err)
				}
			}
		}()
	}

	drain := func() {
		fmt.Println("collectord: draining")
		if err := p.Close(); err != nil {
			fatal("drain: %v", err)
		}
		// Checkpoint-on-drain: fold everything the drain flushed into a
		// frame so the next start replays no WAL at all.
		if err := st.Checkpoint(); err != nil {
			fatal("final checkpoint: %v", err)
		}
		if err := st.Close(); err != nil {
			fatal("closing store: %v", err)
		}
		cleanup()
	}
	if ln != nil {
		srv := newAPIServer(p, st, o, *httpLog, *slowQuery, *pprofOn)
		if err := srv.ServeUntilSignal(ln, drain); err != nil {
			fatal("http: %v", err)
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		drain()
	}
	printSummary(p.Stats(), st.Snapshot())
}

// cleanup undoes a private temp store on the way out — closes it and
// removes its dir. fatal runs it, and so does every clean exit.
var cleanup = func() {}

// openStore opens the collector's store in dir, or — dir empty — in a
// fresh private temp dir, which cleanup then removes. It returns the dir
// it opened.
func openStore(dir string, opts store.Options) (*store.Store, string, error) {
	if dir != "" {
		st, err := store.Open(dir, opts)
		return st, dir, err
	}
	dir, err := os.MkdirTemp("", "collectord-")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(dir, opts)
	cleanup = func() {
		if st != nil {
			st.Close()
		}
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "collectord: removing %s: %v\n", dir, err)
		}
	}
	return st, dir, err
}

// listenHTTP binds the API listener and announces it. The first line is a
// harness contract, byte for byte: bench/procs.go and both smoke drills
// cut the address out of "live state on http://ADDR/snapshot" (a path
// that no longer exists) and must keep doing so until a benchmark PR may
// change that parser.
func listenHTTP(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("http: %v", err)
	}
	fmt.Printf("collectord: live state on http://%s/snapshot\n", ln.Addr())
	fmt.Printf("collectord: v1 API on http://%s/api/v1/snapshot\n", ln.Addr())
	return ln
}

// newAPIServer builds the versioned analytics API over the store (data)
// and the pipeline (counters), and mounts the registry-backed Prometheus
// /metrics endpoint and the flight-recorder debug endpoints (plus, opted
// in, /debug/pprof) behind the same middleware.
func newAPIServer(p *ingest.Pipeline, st *store.Store, o obs.Stack, accessLog bool, slowQuery time.Duration, pprofOn bool) *api.Server {
	cfg := api.Config{Live: p, History: st, Metrics: o.Reg, SlowQuery: slowQuery, Tracer: o.Tracer}
	if accessLog {
		cfg.Log = log.New(os.Stderr, "collectord: http: ", log.LstdFlags)
	}
	srv, err := api.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	srv.MountTelemetry(o.Reg.Handler(), o.Tracer.Handler(), o.Events.Handler(), pprofOn)
	return srv
}

// runDemo is the loopback smoke run: simulate, export, ingest, verify.
// It returns the drained pipeline and its store, a private temp store
// cleanup removes, so -serve can keep exposing the state.
func runDemo(acfg streaming.Config, workers int, quick bool) (*ingest.Pipeline, *store.Store, error) {
	cfg := experiments.QuickConfig()
	if quick {
		cfg.Scale *= 3 // fewer devices, smaller trace
	}
	fmt.Printf("demo: simulating the study window (scale 1:%d)\n", cfg.Scale)
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}

	acfg.DB = res.GeoDB
	acfg.Model = res.Model
	if acfg.WindowHours < entime.StudyHours()+24 {
		acfg.WindowHours = entime.StudyHours() + 24
	}

	// UDP makes no delivery promises even on loopback: retry a lossy
	// replay on a fresh pipeline and store rather than skipping
	// verification — the demo's whole point (and its CI role) is the
	// exact-match check.
	var (
		p    *ingest.Pipeline
		st   *store.Store
		snap *streaming.Snapshot
	)
	for attempt := 1; ; attempt++ {
		if st, _, err = openStore("", store.Options{Analytics: acfg, Sync: store.SyncNever}); err != nil {
			return nil, nil, err
		}
		p, err = ingest.New(ingest.Config{
			Listen:      []string{"127.0.0.1:0"},
			Workers:     workers,
			ShardBuffer: 4096,
			Sink:        st,
		})
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("demo: replaying %d records over NFv9/UDP loopback to %s\n", len(res.Records), p.Addrs()[0])
		start := time.Now()
		rs, err := ingest.Replay(p.Addrs(), res.Records, ingest.ReplayConfig{
			Sources:          8,
			RecordsPerSecond: 50000,
		})
		if err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s := p.Stats(); s.Records == uint64(rs.Records) && p.Drained() {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := p.Close(); err != nil {
			return nil, nil, err
		}
		elapsed := time.Since(start)

		stats := p.Stats()
		snap = st.Snapshot()
		if stats.Records == uint64(rs.Records) && stats.DroppedRecords == 0 {
			printSummary(stats, snap)
			fmt.Printf("demo: streamed %d records in %.2fs (%.0f records/s, %d exporter sources)\n",
				stats.Processed, elapsed.Seconds(), float64(stats.Processed)/elapsed.Seconds(), rs.Sources)
			break
		}
		if attempt >= 3 {
			return nil, nil, fmt.Errorf("demo: loopback replay stayed lossy after %d attempts (sent %d, stats %+v)",
				attempt, rs.Records, stats)
		}
		fmt.Printf("demo: attempt %d lost records (sent %d, received %d, dropped %d); retrying\n",
			attempt, rs.Records, stats.Records, stats.DroppedRecords)
		cleanup()
	}

	// Verification against the batch pipeline.
	kept, census := core.ApplyFilter(res.Records, core.DefaultFilter())
	if !reflect.DeepEqual(snap.Census, census) {
		return nil, nil, fmt.Errorf("demo: streaming census %+v != batch %+v", snap.Census, census)
	}
	batchFig2, err := core.Figure2(kept, res.Curve)
	if err != nil {
		return nil, nil, err
	}
	streamFig2, err := snap.Figure2(res.Curve)
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(streamFig2, batchFig2) {
		return nil, nil, fmt.Errorf("demo: streaming figure-2 series differs from batch")
	}
	fmt.Printf("demo: OK — streaming census and figure-2 series match batch exactly (release-day ratio %.2fx)\n",
		streamFig2.ReleaseDayFlowRatio)
	return p, st, nil
}

// printSummary renders the drained pipeline's headline state.
func printSummary(s ingest.Stats, snap *streaming.Snapshot) {
	fmt.Printf("pipeline: %d packets, %d records (%d processed, %d dropped, %d decode errors)\n",
		s.Packets, s.Records, s.Processed, s.DroppedRecords, s.DecodeErrors)
	fmt.Printf("sources: %d (seq gaps %d, lost packets %d, reordered %d)\n",
		s.Sources, s.SeqGaps, s.SeqLost, s.SeqReordered)
	fmt.Printf("window: %d populated hours, census kept %d of %d\n",
		len(snap.Hours), snap.Census.Kept, snap.Census.Total)
	for i, sp := range snap.Spikes {
		if i >= 3 {
			fmt.Printf("spikes: ... %d more\n", len(snap.Spikes)-3)
			break
		}
		fmt.Printf("spike: %s flows=%.0f (%.1fx over trailing mean)\n",
			sp.Time.Format("Jan 02 15:04"), sp.Flows, sp.Ratio)
	}
	for i, pc := range snap.TopPrefixes {
		if i >= 5 {
			break
		}
		fmt.Printf("top prefix %d: %s (%d flows)\n", i+1, pc.Prefix, pc.Flows)
	}
	if n := len(snap.Districts); n > 0 {
		fmt.Printf("districts active: %d (located %d flows)\n", n, snap.Located)
	}
}

// fatal prints and exits non-zero.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "collectord: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}
