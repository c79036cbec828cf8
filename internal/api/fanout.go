// The clustered side of the API surface: a Server built with
// Config.Fanout fronts N shard collectors instead of a local store. The
// Fanout implementation (internal/cluster.Fleet) gathers every shard's
// state (state.go), merges the aggregates deterministically, and
// composes the per-shard strong ETags into one cluster-wide validator;
// the handlers here translate its results into the v1 wire contract —
// including the partial-failure envelope, which is the part that keeps a
// degraded cluster honest: a response missing shards is 206 with
// Cache-Control: no-store and no ETag, never a silently wrong total.
package api

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// ShardError describes one shard that did not contribute to a fan-out.
type ShardError struct {
	// Shard is the shard index (position in the router's node list).
	Shard int
	// Node is the shard's address.
	Node string
	// Err is the failure, as text.
	Err string
}

// ShardTiming is one shard's contribution time to a fan-out, reported
// back to the caller in a Server-Timing response header.
type ShardTiming struct {
	// Shard is the shard index; Node its address.
	Shard int
	Node  string
	// D is how long the shard's request took (success or failure).
	D time.Duration
}

// FanResult is one gathered-and-merged data fan-out (snapshot or query).
type FanResult struct {
	// Snapshot is the merged analytics over every shard that answered;
	// nil when none did.
	Snapshot *streaming.Snapshot
	// Frames and TailIncluded aggregate the per-shard query metadata
	// (sum and logical OR); both are zero for snapshot fan-outs.
	Frames       int
	TailIncluded bool
	// Resolution and LongHorizon carry the merged long-horizon answer of
	// a day/week/auto-resolution query fan-out (sketches merge across
	// shards; see tier.Answer.Frame). Both are empty on the exact
	// hourly path and for snapshot fan-outs.
	Resolution  string
	LongHorizon *tier.Answer
	// Version is the composite validator token: a hash over the
	// per-shard strong ETags in shard order (a shard answer without one
	// is a missing shard). The token and the merged body derive from the
	// same gather — each per-shard strong ETag pins the exact upstream
	// bytes, and the merged body is a pure function of them — so it is
	// both the version serveCached looks up with and the stamp of the
	// body built from this result.
	Version uint64
	// Missing lists the shards that did not answer, ascending by index.
	Missing []ShardError
	// Timings reports every shard's request duration, ascending by
	// index, for the Server-Timing response header.
	Timings []ShardTiming
}

// FanStats is a gathered /api/v1/stats fan-out: the field-wise sum of
// the reachable shards' counters.
type FanStats struct {
	Ingest ingest.Stats
	// Store is the summed store gauges, present only when every
	// reachable shard is durable.
	Store   *store.Metrics
	Missing []ShardError
}

// Fanout is the multi-upstream data source of a clustered query router
// (implemented by internal/cluster.Fleet). Implementations must be safe
// for concurrent use.
type Fanout interface {
	// NumShards is the fleet size.
	NumShards() int
	// Nonce is a boot-nonce substitute that is stable across router
	// restarts and identical for every router fronting the same node
	// list, so independent routers emit interchangeable validators.
	Nonce() uint64
	// Snapshot gathers and merges /api/v1/snapshot across the fleet.
	Snapshot(ctx context.Context) (*FanResult, error)
	// Query gathers and merges /api/v1/query?from=&to=&resolution=
	// across the fleet. res is forwarded to every shard verbatim (hour is
	// the exact path); the merged long-horizon answer rides back on
	// FanResult.LongHorizon.
	Query(ctx context.Context, from, to time.Time, res tier.Resolution) (*FanResult, error)
	// Stats gathers and sums /api/v1/stats across the fleet.
	Stats(ctx context.Context) (*FanStats, error)
	// Health probes every shard; the returned slice names the shards
	// that are unreachable or not reporting StatusOK.
	Health(ctx context.Context) []ShardError
}

// degradedOf renders the partial-failure marker, nil when nothing is
// missing. The request id rides along so a partial body can be traced
// back through the router and shard access logs.
func degradedOf(missing []ShardError, requestID string) *v1.Degraded {
	if len(missing) == 0 {
		return nil
	}
	sorted := append([]ShardError(nil), missing...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	d := &v1.Degraded{Detail: sorted[0].Err, RequestID: requestID}
	for _, m := range sorted {
		d.MissingShards = append(d.MissingShards, m.Shard)
		d.Nodes = append(d.Nodes, m.Node)
	}
	return d
}

// setServerTiming reports the per-shard fan-out durations in a
// Server-Timing header (RFC 8941 shape: `shard0;dur=12.3, ...`, dur in
// milliseconds), so a traced client sees where a slow gather spent its
// time without any extra round trip. Headers travel outside the body,
// keeping degraded-path and byte-identity body contracts untouched.
func setServerTiming(h http.Header, timings []ShardTiming) {
	if len(timings) == 0 {
		return
	}
	parts := make([]string, len(timings))
	for i, t := range timings {
		parts[i] = fmt.Sprintf("shard%d;dur=%.1f", t.Shard, float64(t.D.Microseconds())/1e3)
	}
	h.Set("Server-Timing", strings.Join(parts, ", "))
}

// shardDetail summarizes the missing shards for an error envelope.
func shardDetail(missing []ShardError) string {
	if len(missing) == 0 {
		return ""
	}
	return fmt.Sprintf("%d shards unreachable; shard %d (%s): %s",
		len(missing), missing[0].Shard, missing[0].Node, missing[0].Err)
}

// handleFanSnapshot is /api/v1/snapshot in fan-out mode.
func (s *Server) handleFanSnapshot(w http.ResponseWriter, r *http.Request, p reqParams) {
	res, err := s.cfg.Fanout.Snapshot(r.Context())
	s.serveFanned(w, r, "v1/snapshot", p.key(), res, err, p.pretty, func() any {
		snap := v1.NewSnapshot(res.Snapshot, p.fields, p.top)
		snap.Degraded = degradedOf(res.Missing, obs.RequestID(r.Context()))
		return snap
	})
}

// handleFanQuery is /api/v1/query in fan-out mode. from/to/resolution
// are already parsed by the caller, and key is the question they ask.
func (s *Server) handleFanQuery(w http.ResponseWriter, r *http.Request, p reqParams, key string, from, to time.Time, resolution tier.Resolution) {
	res, err := s.cfg.Fanout.Query(r.Context(), from, to, resolution)
	s.serveFanned(w, r, "v1/query", key, res, err, p.pretty, func() any {
		return &v1.QueryResponse{
			From:         from,
			To:           to,
			Frames:       res.Frames,
			TailIncluded: res.TailIncluded,
			Snapshot:     v1.NewSnapshot(res.Snapshot, p.fields, p.top),
			Resolution:   res.Resolution,
			LongHorizon:  res.LongHorizon,
			Degraded:     degradedOf(res.Missing, obs.RequestID(r.Context())),
		}
	})
}

// serveFanned finishes a data fan-out: a failed one or one no shard
// answered is an error envelope. A complete gather is serveCached's: the
// composite token is the version, constant for this gather, and the
// body is stamped with it. The degraded path serves 206 Partial Content
// with Cache-Control: no-store and no validator — a partial body must
// never 304-revalidate, be cached, or be replayed as a complete one.
func (s *Server) serveFanned(w http.ResponseWriter, r *http.Request, endpoint, params string, res *FanResult, err error, pretty bool, build func() any) {
	if s.late(w, r) {
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, v1.CodeInternal, "fan-out failed", err.Error())
		return
	}
	if res.Snapshot == nil {
		s.writeError(w, http.StatusServiceUnavailable, v1.CodeUnavailable, "no shard reachable", shardDetail(res.Missing))
		return
	}
	setServerTiming(w.Header(), res.Timings)
	if len(res.Missing) > 0 {
		w.Header().Set("Cache-Control", "no-store")
		s.writeJSON(w, r, http.StatusPartialContent, build(), pretty)
		return
	}
	s.serveCached(w, r, endpoint, params, func() uint64 { return res.Version }, jsonMediaType, func(room []byte) (built, error) {
		b, err := renderBody(room, build(), pretty, s.blocks)
		b.version = res.Version
		return b, err
	})
}

// handleFanStats is /api/v1/stats in fan-out mode: the field-wise sum
// over the reachable shards, 206-marked when some are missing.
func (s *Server) handleFanStats(w http.ResponseWriter, r *http.Request) {
	fs, err := s.cfg.Fanout.Stats(r.Context())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, v1.CodeInternal, "fan-out failed", err.Error())
		return
	}
	if len(fs.Missing) >= s.cfg.Fanout.NumShards() {
		s.writeError(w, http.StatusServiceUnavailable, v1.CodeUnavailable,
			"no shard reachable", shardDetail(fs.Missing))
		return
	}
	resp := v1.StatsResponse{Ingest: fs.Ingest, Store: fs.Store, Degraded: degradedOf(fs.Missing, obs.RequestID(r.Context()))}
	status := http.StatusOK
	if resp.Degraded != nil {
		w.Header().Set("Cache-Control", "no-store")
		status = http.StatusPartialContent
	}
	s.writeJSON(w, r, status, resp, prettyRequested(r.URL.Query().Get("pretty")))
}
