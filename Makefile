# Tier-1 verify is `make verify` (build + test); see ROADMAP.md.
GO ?= go

.PHONY: build test test-bench vet vet-bench fmt loc docs-check race bench bench-ingest obs-gate bench-store bench-api fuzz-smoke crash-smoke api-smoke cluster-smoke verify ci all ingest-demo

all: verify vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (replace cwatrace => ../), so ./... does not
# reach it: vet it separately, which compiles the harness and its tests
# against this checkout. A root-module API change that breaks the
# benchmark then fails here, not in the benchmark driver.
vet-bench:
	$(GO) vet -C bench ./...

# The harness's own tests (~25 s): statistics, compare verdicts, and
# TestSmoke, which builds this checkout's daemons and drives all four
# workloads against them on reduced inputs. A change to an API the
# harness decorates, or to what the daemons serve it, fails here rather
# than in the benchmark driver.
test-bench:
	cd bench && $(GO) test ./...

# Fails when any file needs gofmt (same check CI runs).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# The serving stack's size, measured the roadmap's way (non-test Go lines
# of the nine serving packages, internal/wire and the two daemons, each
# printed above the total so a PR's "which package shrank" is read off
# CI), as a ratchet: SERVING_LOC_MAX is what the last PR that lowered it
# read, and is only ever lowered. A PR that grows the stack past it fails
# here and either finds the lines to delete or argues the new bar in
# review.
SERVING_LOC_MAX = 13656
SERVING_DIRS = internal/api internal/cluster internal/ingest internal/nfv9 internal/obs internal/sketch internal/store internal/streaming internal/tier internal/wire cmd/collectord cmd/queryrouterd
loc:
	@total=0; for d in $(SERVING_DIRS); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%7d  %s\n' $$n $$d; total=$$((total + n)); done; \
	echo "serving stack: $$total non-test lines (bar $(SERVING_LOC_MAX))"; \
	if [ $$total -gt $(SERVING_LOC_MAX) ]; then echo "serving stack grew past SERVING_LOC_MAX" >&2; exit 1; fi

# The prose is held to the tree: every backticked token in README.md and
# DESIGN.md that has the shape of a make target, a -flag, a metric family
# or a pkg.Identifier must still resolve in the Makefile, the flag sets,
# the Go sources (cmd/docscheck says how each shape is looked up). A
# document that names something a PR deleted fails here, in that PR.
docs-check:
	$(GO) run ./cmd/docscheck README.md DESIGN.md

# The concurrency surface of the sharded engine and the live collector:
# the simulator, the flow collector, the backend, the CDN, the scenario
# sweep runner, the NFv9 codec, the ingest/streaming pipeline, the
# durable store (including the crash-recovery byte-identity test) and
# every serving package, the v1 body encoder included, under the race
# detector.
race:
	$(GO) test -race ./internal/sim/ ./internal/netflow/ ./internal/cwaserver/ ./internal/cdn/ ./internal/workgroup/ ./internal/scenario/ ./internal/nfv9/ ./internal/ingest/ ./internal/streaming/ ./internal/store/ ./internal/tier/ ./internal/sketch/ ./internal/api/ ./internal/api/v1/ ./internal/api/client/ ./internal/cluster/ ./internal/obs/ ./internal/wire/

# One pass over every figure/table/ablation benchmark (see DESIGN.md for
# the experiment index) plus the simulator's final sort and Crypto-PAn,
# the trace codec's binary write and read, the ingest, decoder, tail, sketch, store, API-edge and router-merge
# benchmarks: CI's "benchmarks once" step, so a benchmark that broke
# fails there.
bench:
	$(GO) test -run XXX -bench=. -benchtime=1x -benchmem . ./internal/netflow/ ./internal/cryptopan/ ./internal/trace/ ./internal/ingest/ ./internal/nfv9/ ./internal/streaming/ ./internal/sketch/ ./internal/store/ ./internal/api/ ./internal/cluster/

# The ingest throughput benchmark alone (the EXPERIMENTS.md snapshot).
bench-ingest:
	$(GO) test -run XXX -bench BenchmarkIngestPipeline -benchmem ./internal/ingest/

# The <3% telemetry-overhead gate, the one measurement bench/ does not
# take: instrumented vs obs.Disabled ingest, alternating order, medians
# of 5, written to BENCH_obs.json (the CI artifact) and failing above the
# budget. Every other number comes from the harness (go run -C bench .).
obs-gate:
	$(GO) run ./cmd/obsgate -o BENCH_obs.json

# The durable-store benchmarks alone: WAL append per fsync policy,
# historical range queries, checkpoints of a year-long store past
# MaxFrames (64 of them, so a compaction lands in the timed part), a
# tail's per-record fold over a simulated
# capture with and without the geolocation sidecar, and a lone shard's
# snapshot of that capture (the EXPERIMENTS.md snapshot).
bench-store:
	$(GO) test -run XXX -bench 'BenchmarkStoreAppend|BenchmarkQueryRange' -benchmem ./internal/store/
	$(GO) test -run XXX -bench 'BenchmarkCheckpointPastMaxFrames' -benchtime 64x -benchmem ./internal/store/
	$(GO) test -run XXX -bench 'BenchmarkTailIngest|BenchmarkShardSnapshot' -benchmem ./internal/streaming/

# The two halves of an API miss in isolation: value to body (renderBody:
# 1-day, 30-day and year-span hour answers naming geo.Germany()'s 401
# districts, umlauts included; /first is a question's first sighting,
# rendered in scratch and written from there, B/op near 0; /kept adds
# the one copy the response cache makes of a body asked for twice, B/op
# beside body_B; allocs/op is what is left of encoding/json) and body to
# wire (writeBody: gzip of a kept body, its blocks' deflate copied,
# gzip-first of a first sighting, compressed as one run, identity;
# wire_B/op beside ns/op). Cached, uncached and conditional reads under
# live ingest are the harness's mixed_steady.
bench-api:
	$(GO) test -run XXX -bench 'BenchmarkMarshalBody|BenchmarkWriteBody' -benchmem ./internal/api/

# API smoke drill: collectord as an operator starts it (no -data-dir),
# fed a simulated capture over NFv9/UDP; under ingest and after the
# drain it checks ETags, the If-None-Match 304, field selection, the
# record-conservation identities and the /metrics page, then SIGTERMs
# it and requires the temp store gone. CI runs the same test.
api-smoke:
	$(GO) test -run TestAPISmoke -count=1 -v ./cmd/collectord/

# Short fuzz pass over everything that reads bytes from outside the
# process: NFv9 packets off the wire, store records, tier frames and
# sketches off the disk, shard state at the router, the analytics
# state inside checkpoint frames and shard state (one parser, fuzzed
# through both of its consumers), and the query strings of
# /api/v1/query and /api/v1/snapshot at the client edge — plus the five
# targets that read nothing from outside: FuzzAppendJSON holds the v1
# append encoder, rendering rows or splicing kept blocks, to
# encoding/json's bytes, which is that encoder's contract,
# FuzzStitchedGzip holds the gzip member the edge stitches from
# separately deflated chunks to compress/gzip's reader,
# FuzzStateFromFold holds the state a shard encodes from a fold to the
# bytes its rendering encodes to, FuzzRunFold holds a store's answers,
# added from runs of frames merged once, to the per-frame fold's bytes
# across checkpoints and compactions, and FuzzSeriesLikeRing holds a
# shard's hourly series to the ring it replaced. One target per
# invocation (go test -fuzz takes one). Minimizing a multi-kilobyte
# input with the default 60 s budget would eat the whole pass, so it is
# capped. CI runs the same smoke.
FUZZ = $(GO) test -run XXX -fuzztime=10s -fuzzminimizetime=1s
fuzz-smoke:
	$(FUZZ) -fuzz=FuzzDecode ./internal/nfv9/
	$(FUZZ) -fuzz=FuzzDecode ./internal/store/
	$(FUZZ) -fuzz=FuzzRunFold ./internal/store/
	$(FUZZ) -fuzz=FuzzTierDecode ./internal/tier/
	$(FUZZ) -fuzz=FuzzSketchDecode ./internal/sketch/
	$(FUZZ) -fuzz=FuzzShardState ./internal/api/
	$(FUZZ) -fuzz=FuzzQueryParams ./internal/api/
	$(FUZZ) -fuzz=FuzzSnapshotParams ./internal/api/
	$(FUZZ) -fuzz=FuzzStitchedGzip ./internal/api/
	$(FUZZ) -fuzz=FuzzStoredState ./internal/streaming/
	$(FUZZ) -fuzz=FuzzStateFromFold ./internal/streaming/
	$(FUZZ) -fuzz=FuzzSeriesLikeRing ./internal/streaming/
	$(FUZZ) -fuzz=FuzzAppendJSON ./internal/api/v1/

# SIGKILL drill: start a durable collector, stream half a trace over
# UDP, kill -9 mid-capture, restart on the same data dir and require the
# recovered /api/v1/snapshot to match the pre-kill accounting. The tier half
# crashes a month-long store mid-tier-fold (torn temp file, lost day
# frame), serves it through the real daemon, SIGKILLs that too, and
# requires the long-horizon answer unchanged throughout.
crash-smoke:
	$(GO) test -run 'TestCrashRecoverySmoke|TestTierCrashSmoke' -count=1 -v ./cmd/collectord/

# Cluster drill: three sharded collectord processes plus a queryrouterd,
# real NFv9/UDP traffic into every node, SIGKILL one shard and require
# the documented degraded envelope (206 + missing_shards), then restart
# it on the same data dir/ports and require byte-identical recovery.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/queryrouterd/

# Live ingest run: simulate, replay the trace as NFv9/UDP over loopback
# into the collector pipeline and its store, and require the streaming
# aggregates to equal the batch analysis exactly, at 1 and 4 workers.
# `go test ./...` runs the same test.
ingest-demo:
	$(GO) test -run TestLoopbackEndToEnd -count=1 -v ./internal/ingest/

verify: build test

# Mirrors .github/workflows/ci.yml: the formatting gate, the serving-stack
# size ratchet, the docs check, static checks (the bench module
# included), the full test suite, one pass of every benchmark and the
# harness's own tests, the race pass, the crash drill, the API smoke
# against the real daemon, the cluster kill/recovery drill and the fuzz
# smoke.
ci: fmt loc docs-check vet vet-bench build test bench test-bench race crash-smoke api-smoke cluster-smoke fuzz-smoke
