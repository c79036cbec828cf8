// Package cwatrace reproduces "Corona-Warn-App: Tracing the Start of the
// Official COVID-19 Exposure Notification App for Germany" (Reelfs,
// Hohlfeld, Poese — SIGCOMM '20 Posters): a Netflow-based measurement
// study of the app's early adoption, rebuilt end to end in Go.
//
// The repository contains the full substrate the study depends on — the
// GAEN exposure-notification cryptography, the CWA backend and CDN, a
// German population/epidemic/adoption simulation, an ISP access network
// with sampled Netflow export and Crypto-PAn anonymization — plus the
// paper's measurement pipeline (internal/core), a declarative scenario
// layer (internal/scenario) and a benchmark harness that regenerates
// every figure and table. See DESIGN.md for the system inventory,
// EXPERIMENTS.md for paper-vs-measured results and README.md for the
// quickstart.
//
// # Package index
//
// Simulation substrate:
//
//   - internal/geo — deterministic model of Germany: 16 states, 401
//     districts with populations and locations
//   - internal/epidemic — per-district SEIR model with injected outbreaks
//     and the lab-testing pipeline
//   - internal/adoption — the national download curve, media-attention
//     signal and district install allocation
//   - internal/device — phone behaviour: daily syncs, website visits,
//     decoy calls, the upload flow, the background-restriction bug
//   - internal/sim — the sharded, parallel engine that turns all of the
//     above into an anonymized flow trace
//
// Hosting stack:
//
//   - internal/exposure — GAEN cryptography (TEKs, RPIs, risk scoring)
//   - internal/diagkeys — diagnosis-key packages: wire format, padding,
//     index documents
//   - internal/entime — exposure-notification intervals, Berlin time,
//     study calendar constants
//   - internal/cwaserver — the CWA backend: verification, submission,
//     distribution, website, plus an HTTP server facade
//   - internal/cdn — the edge cache in front of the backend, the layer
//     the vantage point actually observes
//
// Network and measurement:
//
//   - internal/netsim — ISPs, aggregation routers, prefixes, address
//     churn
//   - internal/netflow — router flow caches: packet sampling, timeouts,
//     evictions, the sharded collector
//   - internal/nfv9 — NetFlow v9 export packets (the wire format)
//   - internal/cryptopan — prefix-preserving address anonymization
//   - internal/geodb — the anonymized-prefix geolocation database
//   - internal/core — the paper's analysis: filters, Figure 2/3, prefix
//     persistence, outbreak analysis, news correlation
//   - internal/streaming — the same analyses computed online over a
//     record stream: sliding hourly windows, spike detection, top-K
//     prefixes, district rollups
//   - internal/ingest — the live collector pipeline: UDP readers,
//     per-source NFv9 decoding, bounded sharded fan-out with drop
//     accounting, durable-sink and flush hooks, and the NFv9 trace
//     replayer
//   - internal/store — the collector's durable state: segment-based WAL,
//     checkpointed analytics frames with CRC-protected records, crash
//     recovery, background compaction, and the historical time-range
//     query engine
//   - internal/tier — the long-horizon history layer over the store:
//     day/week tier frames folded additively from checkpoint frames,
//     versioned CRC-protected codec, and the span-aware query planner
//     behind resolution=hour|day|week|auto
//   - internal/sketch — the bounded-memory estimators tier frames
//     carry: HyperLogLog distinct-prefix cardinality and a compressing
//     presence-quantile sketch, both with associative, order-invariant
//     merges
//   - internal/api — the versioned analytics API served by collectord:
//     conditional-GET caching (strong ETags from store generations, a
//     single-flight response cache), field selection, gzip, timeouts,
//     method enforcement — /api/v1 is the only HTTP surface
//   - internal/api/v1 — the frozen v1 wire schema: typed
//     request/response structs, the structured error envelope, field
//     selection vocabulary
//   - internal/api/client — the typed Go client: retries with backoff,
//     ETag-aware local caching, structured errors
//   - internal/cluster — the shard ownership map (401-district
//     partition plus /24 hashing) and the scatter-gather fleet behind
//     queryrouterd: commutative merge via streaming.Merge, composite
//     validators, honest degraded-mode accounting
//   - internal/obs — the dependency-free telemetry core shared by both
//     daemons: atomic counters/gauges and lock-free histograms on a
//     Prometheus text registry (nil registry = free no-op), X-Request-Id
//     tracing, freshness watermarks, and the strict exposition linter
//     the daemon tests scrape /metrics through
//   - internal/trace — JSONL/binary trace serialization for
//     cwasim/cwanalyze
//
// Experiments and scenarios:
//
//   - internal/scenario — declarative what-if specs, the named catalog,
//     and the sweep runner with its comparison table
//   - internal/experiments — every figure/table/ablation as a library
//     function, shared by cmd/experiments and bench_test.go
//   - internal/appid — the future-work periodicity classifier
//   - internal/ble — BLE contact process and adoption-efficacy curve
//   - internal/centralized — the centralized-architecture baseline for
//     the privacy/traffic comparison
//   - internal/dnssim — resolver fleet and top-list study (T5)
//   - internal/stats — time series, quantiles, Pearson correlation
//   - internal/workgroup — minimal stdlib-only errgroup equivalent
//
// Commands: cmd/experiments (regenerate all artefacts), cmd/scenarios
// (list/validate/run what-if scenarios), cmd/cwasim + cmd/cwanalyze
// (capture to disk, analyze from disk; -export replays the trace live,
// -data-dir analyzes historical ranges from a collectord store, -addr
// queries a live collectord over the versioned API), cmd/cwabackend
// (the backend as a live HTTP server), cmd/collectord (the live NFv9
// collector daemon with sliding-window analytics, durable
// WAL/checkpoint persistence and the /api/v1 analytics surface;
// -shard i/N keeps one cluster shard's slice) and cmd/queryrouterd (the
// stateless cluster query router: scatter-gather over sharded
// collectors, byte-identical merged responses, composite ETags,
// partial-failure envelopes).
package cwatrace
