// Command queryrouterd is the stateless scatter-gather front of a
// collectord cluster. Each collectord node runs with -shard i/N and owns
// one slice of the 401-district partition; the router fans every
// /api/v1 read out over the fleet with the typed client, merges the
// shards' aggregates with the commutative streaming merge, and serves
// the same versioned API a single collector would — byte-identical
// bodies (the cluster conformance suite in internal/cluster pins this),
// strong conditional GETs backed by a composite validator over the
// per-shard ETags, and an explicit partial-failure envelope when a
// shard is down: HTTP 206 + a degraded marker naming the missing
// shards, Cache-Control: no-store, no ETag — never a silently wrong
// total.
//
//	GET /api/v1/health           200 ok / 200 degraded (some shards down)
//	                             503 degraded (all down) / 503 draining
//	GET /api/v1/stats            field-wise sum over reachable shards
//	GET /api/v1/snapshot         merged cluster snapshot (fields/top/pretty)
//	GET /api/v1/query?from=&to=  merged historical range (durable shards)
//	GET /metrics                 Prometheus text format (fan-out latency
//	                             per shard, error counters, freshness
//	                             watermarks — fleet min, never a sum)
//	GET /debug/traces[?id=ID]    flight recorder: tail-sampled span traces;
//	                             with ?id= the router also gathers the
//	                             shards' spans for that request id and
//	                             serves the merged cross-process tree
//	GET /debug/events            flight recorder: one-shot event ring
//	                             (shard_dead / shard_recovered edges)
//
// The /debug endpoints (pprof included) share the -http listener with
// /metrics; bind it to loopback or an internal interface, never
// publicly.
//
// Usage:
//
//	queryrouterd -nodes host1:8055,host2:8055,host3:8055
//	             [-http 127.0.0.1:8056] [-topk K] [-timeout D]
//	             [-retries N] [-http-log] [-pprof] [-slow-query D]
//	             [-trace-ring N] [-trace-slow D] [-trace-sample N]
//	             [-event-ring N]
//
// -nodes lists the shard nodes in shard order: the i-th address must be
// the node running -shard i/N. -topk must match the nodes' -topk for
// the merged leaderboard to be exact (both default to 10).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	"cwatrace/internal/cluster"
	"cwatrace/internal/obs"
)

func main() {
	var (
		nodes       = flag.String("nodes", "", "comma-separated shard node addresses, in shard order (required)")
		httpAddr    = flag.String("http", "127.0.0.1:8056", "HTTP listen address")
		topK        = flag.Int("topk", 10, "merged leaderboard size (must match the nodes' -topk)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-shard request timeout")
		retries     = flag.Int("retries", 0, "per-shard retries on transient failures (0 = client default, negative = none)")
		httpLog     = flag.Bool("http-log", false, "log one access line per HTTP request")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the HTTP server")
		slowQuery   = flag.Duration("slow-query", 0, "log any request at least this slow (0 disables)")
		newObsStack = obs.StackFlags(flag.CommandLine)
	)
	flag.Parse()
	// Zero or a negative value here would be read as the default: refuse it.
	if *topK <= 0 {
		fatal("-topk must be positive, got %d", *topK)
	}
	if *timeout <= 0 {
		fatal("-timeout must be positive, got %v", *timeout)
	}

	var addrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal("no -nodes given (want a comma-separated shard list, e.g. -nodes host1:8055,host2:8055)")
	}

	o := newObsStack()
	obs.InstallCrashDump(o.Events, os.Stderr)
	defer obs.DumpOnPanic(o.Events, os.Stderr)

	fleet, err := cluster.New(addrs, cluster.Options{
		TopK:          *topK,
		Timeout:       *timeout,
		ClientOptions: &client.Options{Retries: *retries},
		Metrics:       o.Reg,
		Events:        o.Events,
	})
	if err != nil {
		fatal("%v", err)
	}

	srv := newRouterServer(fleet, o, *httpLog, *slowQuery, *pprofOn)

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal("http: %v", err)
	}
	fmt.Printf("queryrouterd: fronting %d shards: %s\n", fleet.NumShards(), strings.Join(fleet.Nodes(), ", "))
	fmt.Printf("queryrouterd: v1 API on http://%s/api/v1/snapshot\n", ln.Addr())
	if err := srv.ServeUntilSignal(ln, func() { fmt.Println("queryrouterd: draining") }); err != nil {
		fatal("http: %v", err)
	}
}

// newRouterServer builds the router's API server: the fan-out surface,
// the registry-backed /metrics endpoint, the flight-recorder debug
// endpoints, and (opted in) /debug/pprof, all behind the shared
// middleware.
func newRouterServer(fleet *cluster.Fleet, o obs.Stack, accessLog bool, slowQuery time.Duration, pprofOn bool) *api.Server {
	cfg := api.Config{Fanout: fleet, Metrics: o.Reg, SlowQuery: slowQuery, Tracer: o.Tracer}
	if accessLog {
		cfg.Log = log.New(os.Stderr, "queryrouterd: http: ", log.LstdFlags)
	}
	srv, err := api.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	// The watermark gauges only move on a stats gather; refresh them on
	// every scrape (bounded by the per-shard timeout) so Prometheus sees
	// current freshness even on an otherwise idle router.
	metrics := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := fleet.Stats(r.Context()); err != nil {
			fmt.Fprintf(os.Stderr, "queryrouterd: stats gather for /metrics: %v\n", err)
		}
		o.Reg.Handler().ServeHTTP(w, r)
	})
	srv.MountTelemetry(metrics, traceHandler(o.Tracer, fleet.Nodes()), o.Events.Handler(), pprofOn)
	return srv
}

// traceHandler serves the router's /debug/traces. Without ?id= it
// lists the locally retained traces; with ?id= it also asks every
// shard's debug endpoint for the same request id and grafts the shard
// spans (labelled with their node address) into the router's trace, so
// one id yields the full cross-process tree — router root, fan-out
// children, and each shard's own spans nested under them via the
// X-Trace-Parent linkage.
func traceHandler(tracer *obs.Tracer, nodes []string) http.Handler {
	local := tracer.Handler()
	hc := &http.Client{Timeout: 2 * time.Second}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" || tracer == nil {
			local.ServeHTTP(w, r)
			return
		}
		var merged *obs.Trace
		if tr := tracer.Lookup(id); tr != nil {
			cp := *tr
			cp.Spans = append([]obs.SpanData(nil), tr.Spans...)
			merged = &cp
		}
		for _, node := range nodes {
			tr, err := fetchShardTrace(hc, node, id)
			if err != nil || tr == nil {
				continue // a dead shard has no spans to contribute
			}
			if merged == nil {
				// The router's own ring evicted (or never kept) the trace;
				// the shard halves are still worth serving.
				cp := *tr
				cp.Spans = nil
				merged = &cp
			}
			for _, sp := range tr.Spans {
				if sp.Node == "" {
					sp.Node = node
				}
				merged.Spans = append(merged.Spans, sp)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if merged == nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "trace not retained", "id": id})
			return
		}
		sort.Slice(merged.Spans, func(i, j int) bool {
			return merged.Spans[i].Start.Before(merged.Spans[j].Start)
		})
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(merged)
	})
}

// fetchShardTrace asks one shard for its half of a trace. Any failure
// (shard down, trace not retained there) yields (nil, err-or-nil): the
// merge simply proceeds without that shard's spans.
func fetchShardTrace(hc *http.Client, node, id string) (*obs.Trace, error) {
	base := node
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := hc.Get(base + "/debug/traces?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil
	}
	var tr obs.Trace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// fatal prints and exits non-zero.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "queryrouterd: "+format+"\n", args...)
	os.Exit(1)
}
