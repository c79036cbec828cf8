// Package api is the versioned HTTP analytics surface of collectord:
// the typed /api/v1/{snapshot,query,health,stats} endpoints (wire
// schema in internal/api/v1) — the only surface; any other path is the
// mux's 404 — and the middleware they share: method enforcement, request
// deadlines, gzip, access logging, and the performance headline,
// conditional-GET caching. Every cacheable
// response carries a strong ETag derived from the data-generation token
// (store.Version) plus the request parameters; repeated reads and CDN
// front-ends revalidate with If-None-Match and get 304 Not Modified instead of a
// full re-marshal, a single-flight response cache collapses N identical
// concurrent hits into one serialization, and a gzip response is
// stitched from blocks that were deflated once (gzip.go).
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// Live is the ingest pipeline's side of a collector (or anything shaped
// like it): its counters feed /api/v1/stats.
type Live interface {
	Stats() ingest.Stats
}

// History is the data source: the store every collector runs, durable
// with -data-dir and in a private temp dir without. It owns the snapshot
// state and answers historical range queries; Version feeds the ETag
// derivation (see store.Version for the exact invalidation contract),
// and every answer carries the Version of its own cut, which a 200's
// ETag is derived from.
type History interface {
	Snapshot() *streaming.Snapshot
	// SnapshotResult is Snapshot unrendered: what ?format=state ships.
	SnapshotResult() *store.QueryResult
	// QueryResolution answers a range query: hour is the exact answer,
	// day/week come from the downsampled tier frames plus the exact raw
	// residual, auto picks by span (see store.QueryResolution).
	QueryResolution(from, to time.Time, res tier.Resolution) (*store.QueryResult, error)
	Version(from, to time.Time) uint64
	Metrics() store.Metrics
}

// Config parameterizes a Server. History or Fanout must be set; a
// collector sets Live and History, a clustered query router sets Fanout
// alone.
type Config struct {
	// Live, when set, adds the pipeline counters to /api/v1/stats.
	Live    Live
	History History
	// Fanout turns the server into a clustered query router: the data
	// endpoints gather-and-merge across shard nodes instead of reading a
	// local source (see Fanout in fanout.go). Live and History are
	// ignored by the v1 data endpoints when set.
	Fanout Fanout
	// Log receives one access-log line per request (nil disables access
	// logging; write/encode errors still reach the standard logger).
	Log *log.Logger
	// Timeout (default 30s; profiles run without it) ends a wait on another
	// request's fill and a router's fan-out; a store build runs to its end,
	// and a request that ran one past the deadline answers 503 timeout.
	Timeout time.Duration
	// Metrics, when set, registers the API telemetry on the registry
	// (see metrics.go for the catalogue). Nil runs uninstrumented.
	Metrics *obs.Registry
	// SlowQuery logs any request that takes at least this long (via the
	// error logger, so it surfaces even without access logging). Zero
	// disables the slow-query log.
	SlowQuery time.Duration
	// Tracer, when set, records one span tree per request into the
	// flight recorder's trace ring (tail-sampled; see obs.Tracer). The
	// root span is named by the endpoint vocabulary and parented under
	// a caller's X-Trace-Parent, so router and shard traces merge into
	// one cross-process tree. Nil disables span tracing.
	Tracer *obs.Tracer
}

// Server is the mounted API surface. It is an http.Handler; extra
// endpoints (collectord's /metrics) join the same middleware stack via
// Handle.
type Server struct {
	cfg      Config
	boot     uint64
	mux      *http.ServeMux
	cache    *respCache
	blocks   *blockCache
	m        apiMetrics
	draining atomic.Bool
}

// New builds the server and mounts the v1 surface.
func New(cfg Config) (*Server, error) {
	if cfg.History == nil && cfg.Fanout == nil {
		return nil, fmt.Errorf("api: need a History or Fanout source")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	// The boot nonce scopes ETags to one state lineage. A router derives
	// it from the fleet instead of its own start time, so two routers
	// fronting the same nodes (and one router across restarts) emit
	// interchangeable validators.
	boot := uint64(time.Now().UnixNano())
	if cfg.Fanout != nil {
		boot = cfg.Fanout.Nonce()
	}
	s := &Server{
		cfg:    cfg,
		boot:   boot,
		mux:    http.NewServeMux(),
		cache:  newRespCache(respCacheEntries),
		blocks: newBlockCache(blockBytes),
	}
	s.m.register(cfg.Metrics)
	s.cache.hits, s.cache.misses = s.m.cacheHits, s.m.cacheMisses
	s.blocks.hits, s.blocks.misses = s.m.blockHits, s.m.blockMisses

	s.mux.Handle("/api/v1/snapshot", s.get(s.handleSnapshot))
	s.mux.Handle("/api/v1/query", s.get(s.handleQuery))
	s.mux.Handle("/api/v1/health", s.get(s.handleHealth))
	s.mux.Handle("/api/v1/stats", s.get(s.handleStats))
	s.mux.Handle("/api/v1/", s.get(s.handleUnknown))
	return s, nil
}

// Handle mounts an extra GET endpoint behind the shared middleware
// (method enforcement, deadline, access log).
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.get(h.ServeHTTP))
}

// SetDraining flips the health endpoints between 200 ok and 503
// draining. collectord sets it at the start of the SIGTERM drain so
// load balancers stop routing to a daemon that is checkpointing its way
// down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ---- middleware ----

// statusWriter records what the handler produced for the access log and
// surfaces the first body-write error instead of dropping it.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	err    error
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	if err != nil && sw.err == nil {
		sw.err = err
	}
	return n, err
}

// ServeHTTP serves the mux with the request id, per-request logging,
// the per-endpoint metrics, and the slow-query log. It adopts a valid
// client-supplied X-Request-Id (a router fanning out on behalf of a
// traced request) or mints one, threads it through the context and
// echoes it on the response. The line format is part of the
// operational contract (TestAccessLogFormat pins it):
//
//	METHOD REQUEST-URI STATUS BYTESB DURATIONus id=REQUEST-ID
//
// Body-write failures (a client that went away mid-response) are logged
// even when access logging is off — a dropped response must never be
// silent.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	id := r.Header.Get(obs.RequestIDHeader)
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	ctx := obs.WithRequestID(r.Context(), id)
	// The root span shares the request id as its trace id, named by
	// the same endpoint vocabulary as the metrics, and parented under
	// a fanning-out router's span when X-Trace-Parent arrived with
	// the request.
	var sp *obs.Span
	if s.cfg.Tracer != nil {
		parent, _ := obs.ParseSpanID(r.Header.Get(obs.TraceParentHeader))
		ctx, sp = s.cfg.Tracer.StartTrace(ctx, endpointLabel(r.URL.Path), parent)
		sp.Set(obs.Str("method", r.Method), obs.Str("uri", r.URL.RequestURI()))
	}
	r = r.WithContext(ctx)
	s.m.inFlight.Add(1)
	s.mux.ServeHTTP(sw, r)
	s.m.inFlight.Add(-1)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	dur := time.Since(start)
	if sp != nil {
		sp.SetStatus(sw.status)
		sp.Set(obs.Int("bytes", int64(sw.bytes)))
		sp.End()
	}
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("%s %s %d %dB %dus id=%s",
			r.Method, r.URL.RequestURI(), sw.status, sw.bytes, dur.Microseconds(), id)
	}
	s.m.observe(r.URL.Path, sw.status, dur)
	if s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
		// A slow fan-out names its slow shard right in the log line:
		// the per-shard breakdown is already on the response as
		// Server-Timing, so quote it instead of recomputing.
		shards := ""
		if timing := sw.Header().Get("Server-Timing"); timing != "" {
			shards = fmt.Sprintf(" shards=%q", timing)
		}
		s.errorf("slow query: %s %s %d %dus id=%s%s", r.Method, r.URL.RequestURI(), sw.status, dur.Microseconds(), id, shards)
	}
	if sw.err != nil {
		s.errorf("writing %s %s: %v", r.Method, r.URL.Path, sw.err)
	}
}

// get is readOnly under the request's deadline (Config.Timeout): the one
// context every wait below selects on, checked before a body goes (late).
func (s *Server) get(h http.HandlerFunc) http.Handler {
	return s.readOnly(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	})
}

// readOnly enforces the read-only method contract: anything but GET/HEAD
// is 405 with an Allow header and the structured error envelope.
func (s *Server) readOnly(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			s.writeError(w, http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed,
				"method "+r.Method+" not allowed", "the API is read-only: GET or HEAD")
			return
		}
		h(w, r)
	})
}

// late answers the timeout envelope, not what was built, once r's
// deadline has passed (by the clock: a timer may fire late) or its client left.
func (s *Server) late(w http.ResponseWriter, r *http.Request) bool {
	if dl, ok := r.Context().Deadline(); r.Context().Err() == nil && (!ok || time.Now().Before(dl)) {
		return false
	}
	s.writeError(w, http.StatusServiceUnavailable, v1.CodeTimeout, "request timed out", "")
	return true
}

// errorf reports server-side I/O problems. It prefers the configured
// logger and falls back to the process logger, so failures surface even
// on a server built without access logging.
func (s *Server) errorf(format string, args ...any) {
	l := s.cfg.Log
	if l == nil {
		l = log.Default()
	}
	l.Printf("api: "+format, args...)
}

// ---- request parsing ----

// reqParams are the presentation parameters shared by the cacheable
// endpoints. Their canonical rendering is part of the ETag input.
type reqParams struct {
	fields v1.FieldSet
	top    int
	pretty bool
	// state selects the shard-state representation (?format=state, see
	// state.go) instead of the JSON body; fields, top and pretty do not
	// apply to it.
	state bool
}

// key renders the parameters canonically for ETag derivation. The
// representation is part of it: a strong ETag names bytes, so the JSON
// and state answers to one range never share a validator or a cache
// entry.
func (p reqParams) key() string {
	return fmt.Sprintf("fields=%s&top=%d&pretty=%t&state=%t", p.fields, p.top, p.pretty, p.state)
}

// parseParams reads ?fields=, ?top=, ?pretty= and ?format=; a bad value
// is a structured 400.
func (s *Server) parseParams(w http.ResponseWriter, r *http.Request) (reqParams, bool) {
	q := r.URL.Query()
	p := reqParams{fields: v1.AllFields}
	var err error
	if p.fields, err = v1.ParseFields(q.Get("fields")); err != nil {
		s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad fields parameter", err.Error())
		return p, false
	}
	if raw := q.Get("top"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad top parameter",
				fmt.Sprintf("want a non-negative integer, got %q", raw))
			return p, false
		}
		p.top = n
	}
	p.pretty = prettyRequested(q.Get("pretty"))
	switch format := q.Get("format"); format {
	case "":
	case "state":
		if s.cfg.Fanout != nil {
			s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad format parameter",
				"format=state is served by shard nodes, not by a query router")
			return p, false
		}
		p.state = true
	default:
		s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad format parameter",
			fmt.Sprintf("want state, or none for JSON; got %q", format))
		return p, false
	}
	return p, true
}

// prettyRequested interprets ?pretty=. Compact JSON is the default;
// pretty=1 (or true) opts into indentation.
func prettyRequested(v string) bool { return v == "1" || v == "true" }

// ---- handlers ----

// handleHealth is /api/v1/health. The daemon's own drain trumps
// everything; on a router the fleet's reachability decides next: all
// shards up is ok/200, some down is degraded/200 (the router still
// serves partial envelopes), all down is degraded/503.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := v1.HealthResponse{Status: v1.StatusOK}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = v1.StatusDraining
		status = http.StatusServiceUnavailable
	} else if s.cfg.Fanout != nil {
		if missing := s.cfg.Fanout.Health(r.Context()); len(missing) > 0 {
			resp.Status = v1.StatusDegraded
			resp.Degraded = degradedOf(missing, obs.RequestID(r.Context()))
			if len(missing) >= s.cfg.Fanout.NumShards() {
				status = http.StatusServiceUnavailable
			}
		}
	}
	s.writeJSON(w, r, status, resp, prettyRequested(r.URL.Query().Get("pretty")))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fanout != nil {
		s.handleFanStats(w, r)
		return
	}
	m := s.cfg.History.Metrics()
	resp := v1.StatsResponse{Store: &m}
	if s.cfg.Live != nil {
		resp.Ingest = s.cfg.Live.Stats()
	}
	s.writeJSON(w, r, http.StatusOK, resp, prettyRequested(r.URL.Query().Get("pretty")))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	p, ok := s.parseParams(w, r)
	if !ok {
		return
	}
	if s.cfg.Fanout != nil {
		s.handleFanSnapshot(w, r, p)
		return
	}
	version := func() uint64 { return s.cfg.History.Version(time.Time{}, time.Time{}) }
	s.serveCached(w, r, "v1/snapshot", p.key(), version, p.mediaType(), func(room []byte) (b built, err error) {
		if p.state {
			res := s.cfg.History.SnapshotResult()
			st, origin := res.State()
			b.body, err = encodeState(room, st, origin, res)
			b.version = res.Version
			return b, err
		}
		snap := s.cfg.History.Snapshot()
		b, err = renderBody(room, v1.NewSnapshot(snap, p.fields, p.top), p.pretty, s.blocks)
		b.version = snap.Version
		return b, err
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	p, ok := s.parseParams(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	from, err := store.ParseTime(q.Get("from"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad from parameter", err.Error())
		return
	}
	to, err := store.ParseTime(q.Get("to"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad to parameter", err.Error())
		return
	}
	resolution, err := tier.ParseResolution(q.Get("resolution"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, v1.CodeBadRequest, "bad resolution parameter", err.Error())
		return
	}
	key := fmt.Sprintf("from=%s&to=%s&resolution=%s&%s", stamp(from), stamp(to), resolution, p.key())
	if s.cfg.Fanout != nil {
		s.handleFanQuery(w, r, p, key, from, to, resolution)
		return
	}
	version := func() uint64 { return s.cfg.History.Version(from, to) }
	s.serveCached(w, r, "v1/query", key, version, p.mediaType(), func(room []byte) (built, error) {
		res, err := s.cfg.History.QueryResolution(from, to, resolution)
		if err != nil {
			return built{}, err
		}
		var b built
		if p.state {
			st, origin := res.State()
			b.body, err = encodeState(room, st, origin, res)
		} else {
			b, err = renderBody(room, &v1.QueryResponse{
				From:         res.From,
				To:           res.To,
				Frames:       res.Frames,
				TailIncluded: res.TailIncluded,
				Snapshot:     v1.NewSnapshot(res.Snapshot(), p.fields, p.top),
				Resolution:   string(res.Resolution),
				LongHorizon:  res.LongHorizon,
			}, p.pretty, s.blocks)
		}
		b.version = res.Version
		return b, err
	})
}

func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, http.StatusNotFound, v1.CodeNotFound,
		"no such endpoint", r.URL.Path+" is not part of the v1 surface")
}

// ---- data-source plumbing ----

// stamp renders a query bound for cache keys. The open bound gets a
// non-numeric sentinel: a unix-epoch bound (ParseTime("0")) also has
// UnixNano 0, and the two select very different data — they must never
// share a cache key or validate each other's 304s.
func stamp(t time.Time) string {
	if t.IsZero() {
		return "open"
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

// ---- response writing ----

// gzipMinBytes is the smallest body worth compressing; health-sized
// responses skip the overhead.
const gzipMinBytes = 1 << 10

// built is one rendered response body.
type built struct {
	body []byte
	// cuts are the body's closed blocks (v1.AppendJSON, deflater.member).
	cuts []v1.Cut
	// version is the generation token of the cut the body shows, as the
	// source stamped it (store.QueryResult.Version, Snapshot.Version,
	// FanResult.Version).
	version uint64
}

// serveCached is the one conditional-GET core, of a collector's
// endpoints and of a router's complete fan-outs alike: derive the strong
// ETag from (endpoint, params, data generation), answer If-None-Match
// hits with a bodyless 304, and otherwise serve the body through the
// single-flight cache, which keeps one body per question once it is
// asked again: N identical requests in flight together cost one build,
// or two when the first meets closed blocks for the first time.
//
// A strong ETag promises byte-identical bodies, so a body goes out under
// the tag of the version stamped on it, not of the version() read for
// If-None-Match and the lookup: under ingest an append lands between any
// two reads, and the stamp is read with the cut. One read, one build,
// always a validator. build renders into room from scratch, which the
// body is written from: only a body the cache keeps is copied.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, params string, version func() uint64, mediaType string, build func(room []byte) (built, error)) {
	h := w.Header()
	h.Set("Cache-Control", "no-cache") // cacheable, but revalidate: ETags are the invalidation channel
	h.Set("Vary", "Accept-Encoding")   // a 304 carries the Vary its 200 would (RFC 9110 §15.4.5)
	etag := etagFor(s.boot, endpoint, params, version())
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		h.Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	withRoom(func(room []byte) (mine []byte) {
		b, tag, done, err := s.cache.get(r.Context(), endpoint+"?"+params, etag, func() (built, string, error) {
			b, err := build(room)
			mine = b.body
			return b, etagFor(s.boot, endpoint, params, b.version), err
		})
		defer done()
		switch {
		case s.late(w, r):
		case err != nil:
			s.writeError(w, http.StatusInternalServerError, v1.CodeInternal, "building response failed", err.Error())
		default:
			h.Set("ETag", tag)
			s.writeBody(w, r, http.StatusOK, mediaType, b)
		}
		return mine
	})
}

// writeJSON renders and sends an uncached response.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any, pretty bool) {
	if s.late(w, r) {
		return
	}
	withRoom(func(room []byte) []byte {
		b, err := renderBody(room, v, pretty, s.blocks)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, v1.CodeInternal, "encoding response failed", err.Error())
			return nil
		}
		s.writeBody(w, r, status, jsonMediaType, b)
		return b.body
	})
}

// writeBody sends a rendered body, gzip-compressed when the client
// accepts it and the body is big enough to bother. Every path that
// could compress declares Vary, so a shared cache never replays gzip
// bytes to a client that did not ask for them. Only JSON may be
// content-sniffed: any other representation is marked nosniff. The gzip
// bytes are one member stitched along b.cuts (see gzip.go).
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, status int, mediaType string, b built) {
	body := b.body
	h := w.Header()
	h.Set("Content-Type", mediaType)
	if mediaType != jsonMediaType {
		h.Set("X-Content-Type-Options", "nosniff")
	}
	h.Set("Vary", "Accept-Encoding")
	compress := len(body) >= gzipMinBytes && acceptsGzip(r)
	if r.Method == http.MethodHead {
		// Mirror the headers the matching GET would send (RFC 9110):
		// gzip GETs stream chunked with no Content-Length.
		if compress {
			h.Set("Content-Encoding", "gzip")
		} else {
			h.Set("Content-Length", strconv.Itoa(len(body)))
		}
		w.WriteHeader(status)
		return
	}
	if compress {
		h.Set("Content-Encoding", "gzip")
		w.WriteHeader(status)
		d := deflaters.Get().(*deflater)
		_, err := w.Write(d.member(body, b.cuts))
		deflaters.Put(d)
		if err != nil {
			s.errorf("gzip response for %s: %v", r.URL.Path, err)
		}
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.errorf("response for %s: %v", r.URL.Path, err)
	}
}

// writeError sends the structured error envelope every v1 failure path
// uses.
func (s *Server) writeError(w http.ResponseWriter, status int, code, message, detail string) {
	body, _ := json.Marshal(v1.ErrorResponse{Error: &v1.Error{Code: code, Message: message, Detail: detail}}) // strings always marshal
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.errorf("error envelope for status %d: %v", status, err)
	}
}

const jsonMediaType = "application/json"

// mediaType is the Content-Type of the representation p selects.
func (p reqParams) mediaType() string {
	if p.state {
		return StateMediaType
	}
	return jsonMediaType
}

// scratch is the room bodies are rendered in and written from, kept
// between responses so that no body grows a buffer from nothing; room
// grown past maxRoom (a pretty-printed year) is let go.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

const maxRoom = 4 << 20

// withRoom lends use room from scratch to render and write a body in,
// and keeps the body use returns as the room unless it is past maxRoom.
func withRoom(use func(room []byte) []byte) {
	room := scratch.Get().(*[]byte)
	if body := use((*room)[:0]); body != nil && cap(body) <= maxRoom {
		*room = body
	}
	scratch.Put(room)
}

// renderBody appends compact JSON (the default), or two-space
// indentation under ?pretty=1, newline-terminated, to room — a
// json.Encoder's bytes: the data bodies through the v1 append encoder
// with their cuts (closed blocks through blocks; an indented body has
// none), the envelopes through encoding/json.
func renderBody(room []byte, v any, pretty bool, blocks v1.Blocks) (b built, err error) {
	body := room
	switch v := v.(type) {
	case *v1.QueryResponse:
		body, b.cuts, err = v.AppendJSON(body, blocks)
	case *v1.Snapshot:
		body, b.cuts, err = v.AppendJSON(body, blocks)
	default:
		var j []byte
		j, err = json.Marshal(v)
		body = append(body, j...)
	}
	if b.body = append(body, '\n'); err != nil || !pretty {
		return b, err
	}
	var buf bytes.Buffer
	b.cuts, err = nil, json.Indent(&buf, b.body, "", "  ")
	b.body = buf.Bytes()
	return b, err
}

// acceptsGzip reports whether the client advertises gzip support. A
// coding name matches in any case, and x-gzip is gzip (RFC 9110
// §8.4.1); a qvalue of 0 is an explicit refusal (§12.4.2), not support.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if coding = strings.TrimSpace(coding); !strings.EqualFold(coding, "gzip") && !strings.EqualFold(coding, "x-gzip") {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}
