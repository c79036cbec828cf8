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
// The load generator is a second process: `cwasim -export ADDR` replays
// a simulated capture to the -listen address as NFv9 over UDP.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/cluster"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
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
		httpLog     = flag.Bool("http-log", false, "log one access line per HTTP request")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the HTTP server")
		slowQuery   = flag.Duration("slow-query", 0, "log any request at least this slow (0 disables)")

		newObsStack = obs.StackFlags(flag.CommandLine)

		dataDir      = flag.String("data-dir", "", "durable store directory (empty: a private temp dir, never fsynced, removed at exit)")
		fsyncPolicy  = flag.String("fsync", "interval", "WAL fsync policy: always (a record counted as processed is on stable storage; one fsync per commit group, not per datagram), interval (fsync every -fsync-interval) or never (only on seal, checkpoint and shutdown)")
		fsyncEvery   = flag.Duration("fsync-interval", time.Second, "fsync cadence under -fsync=interval (must be positive)")
		ckptEvery    = flag.Duration("checkpoint-interval", 5*time.Minute, "checkpoint/compaction cadence (0 disables the ticker)")
		segmentBytes = flag.Int64("segment-bytes", 4<<20, "WAL segment rotation size in bytes")
	)
	flag.Parse()
	// A value refused here would be read as the default, the stored value
	// or never; a zero -checkpoint-interval is documented to disable.
	if *ckptEvery < 0 {
		fatal("-checkpoint-interval must not be negative, got %v", *ckptEvery)
	}
	for _, name := range []string{"segment-bytes", "topk", "window-hours"} {
		if v := flag.Lookup(name).Value.String(); v == "0" || strings.HasPrefix(v, "-") {
			fatal("-%s must be positive, got %s", name, v)
		}
	}

	// One observability stack for the whole daemon: the registry, the
	// flight recorder's trace/event rings, the SIGQUIT crash dump and the
	// panic dump on the main goroutine.
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
	if pol == store.SyncInterval && *fsyncEvery <= 0 {
		// The pipeline runs no flush loop without a positive cadence, so
		// the interval policy would silently never fsync.
		fatal("-fsync interval needs a positive -fsync-interval, got %v", *fsyncEvery)
	}
	st, dir, err := openStore(*dataDir, store.Options{
		Analytics:    acfg,
		SegmentBytes: *segmentBytes,
		Sync:         pol,
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
		live, err := st.SnapshotResult()
		if err != nil {
			fatal("final snapshot: %v", err)
		}
		printSummary(p.Stats(), live.Snapshot())
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

// printSummary renders the drained pipeline's headline state.
func printSummary(s ingest.Stats, snap *streaming.Snapshot) {
	fmt.Printf("pipeline: %d packets, %d records (%d processed, %d dropped, %d decode errors)\n",
		s.Packets, s.Records, s.Processed, s.DroppedRecords, s.DecodeErrors)
	fmt.Printf("sources: %d (seq gaps %d, lost packets %d, reordered %d)\n",
		s.Sources, s.SeqGaps, s.SeqLost, s.SeqReordered)
	fmt.Printf("window: %d populated hours, census kept %d of %d\n",
		populatedHours(snap.Hours), snap.Census.Kept, snap.Census.Total)
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

// populatedHours counts the hours of a rendered series that hold flows or
// bytes: a rendering zero-fills every hour between its ends.
func populatedHours(hours []streaming.HourPoint) int {
	n := 0
	for _, p := range hours {
		if p.Flows != 0 || p.Bytes != 0 {
			n++
		}
	}
	return n
}

// fatal prints and exits non-zero.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "collectord: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}
