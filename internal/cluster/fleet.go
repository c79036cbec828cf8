// The query-router half of the package: Fleet gathers every shard's
// state over the typed client (the ?format=state representation: the
// codecs the durable store writes frames in), folds it exactly as a
// store folds the frames on its disk — streaming.Merge for the exact
// part, tier.Builder.AddFrame for the long-horizon part — renders once,
// and composes the per-shard strong ETags into one cluster-wide
// validator. It implements api.Fanout, so cmd/queryrouterd is just
// api.New(Config{Fanout: fleet}).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/geo"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// Options tune a Fleet; the zero value is usable.
type Options struct {
	// TopK bounds the merged prefix leaderboard. It must match the
	// shard nodes' own top-K for the cluster to be byte-identical to a
	// union collector (default 10, the collectord default).
	TopK int
	// Timeout bounds each per-shard request (default 10s).
	Timeout time.Duration
	// ClientOptions override the per-shard client settings (retries,
	// backoff, transport); nil uses the client defaults.
	ClientOptions *client.Options
	// Metrics registers the fleet's instruments (per-shard fan-out
	// latency, error counters, watermarks) on the registry; nil disables
	// instrumentation.
	Metrics *obs.Registry
	// Events, when set, receives shard_dead/shard_recovered flight-
	// recorder events on reachability transitions (recorded once per
	// transition, not per failed request); nil disables them.
	Events *obs.EventRing
}

// Fleet fans requests out over the shard nodes of one cluster. It is
// stateless between requests (the clients' ETag caches are the only
// memory) and safe for concurrent use.
type Fleet struct {
	nodes   []string
	clients []*client.Client
	topK    int
	timeout time.Duration
	nonce   uint64
	m       fleetMetrics
	events  *obs.EventRing
	// model labels the merged districts. Shard state carries district
	// ids only; every shard that has districts at all (-geodb) names
	// them from this same model.
	model *geo.Model
	// down tracks per-shard reachability purely for event edges: a
	// shard_dead event fires on the first failure, shard_recovered on
	// the first success after failures.
	down []atomic.Bool
}

// New builds a Fleet over the shard nodes, in shard order: nodes[i]
// serves shard i of len(nodes).
func New(nodes []string, opts Options) (*Fleet, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	f := &Fleet{
		nodes:   append([]string(nil), nodes...),
		topK:    opts.TopK,
		timeout: opts.Timeout,
		events:  opts.Events,
		model:   geo.Germany(),
		down:    make([]atomic.Bool, len(nodes)),
	}
	if f.topK <= 0 {
		f.topK = 10
	}
	if f.timeout <= 0 {
		f.timeout = 10 * time.Second
	}
	for _, n := range nodes {
		c, err := client.New(n, opts.ClientOptions)
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	// The boot-nonce substitute: a pure function of the node list, so a
	// router restart — or a second router fronting the same fleet —
	// emits interchangeable validators. (A single node's API seeds its
	// ETags with a per-process boot nonce instead; the router does not
	// need one because its validators already churn with the shards'.)
	h := fnv.New64a()
	h.Write([]byte("cwatrace/cluster:"))
	for _, n := range nodes {
		h.Write([]byte(n))
		h.Write([]byte{'\n'})
	}
	f.nonce = h.Sum64()
	f.m.register(opts.Metrics, len(f.clients))
	return f, nil
}

// NumShards implements api.Fanout.
func (f *Fleet) NumShards() int { return len(f.clients) }

// Nonce implements api.Fanout.
func (f *Fleet) Nonce() uint64 { return f.nonce }

// Nodes reports the shard addresses, in shard order.
func (f *Fleet) Nodes() []string { return append([]string(nil), f.nodes...) }

// eachShard runs fn against every shard concurrently, each under the
// per-shard timeout, and reports the shards that failed (ascending)
// plus every shard's request duration (in shard order). Each duration
// feeds the per-shard latency histogram; failures bump the per-shard
// error counter.
func (f *Fleet) eachShard(ctx context.Context, fn func(ctx context.Context, i int, c *client.Client) error) ([]api.ShardError, []api.ShardTiming) {
	errs := make([]error, len(f.clients))
	timings := make([]api.ShardTiming, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, f.timeout)
			defer cancel()
			// One child span per shard RPC, on the context the client
			// propagates — its span id rides to the shard as
			// X-Trace-Parent, linking the shard's root span under this
			// one in the merged cross-process tree. Free when the request
			// carries no active trace.
			sctx, sp := obs.StartSpan(cctx, "fanout.shard")
			sp.Set(obs.Int("shard", int64(i)), obs.Str("node", f.nodes[i]))
			t0 := time.Now()
			errs[i] = fn(sctx, i, c)
			d := time.Since(t0)
			sp.Fail(errs[i])
			sp.End()
			timings[i] = api.ShardTiming{Shard: i, Node: f.nodes[i], D: d}
			f.m.observeShard(i, d, errs[i] != nil)
			f.noteShard(i, errs[i])
		}(i, c)
	}
	wg.Wait()
	var missing []api.ShardError
	for i, err := range errs {
		if err != nil {
			missing = append(missing, api.ShardError{Shard: i, Node: f.nodes[i], Err: err.Error()})
		}
	}
	f.m.observeFanout(len(missing) > 0)
	return missing, timings
}

// noteShard records the reachability edge events: shard_dead on the
// first failure after successes, shard_recovered on the first success
// after failures. The atomic swap makes each transition fire exactly
// once even under concurrent fan-outs.
func (f *Fleet) noteShard(i int, err error) {
	if err != nil {
		if !f.down[i].Swap(true) {
			f.events.Record("shard_dead", "shard stopped answering",
				obs.Int("shard", int64(i)), obs.Str("node", f.nodes[i]), obs.Str("err", err.Error()))
		}
		return
	}
	if f.down[i].Swap(false) {
		f.events.Record("shard_recovered", "shard answering again",
			obs.Int("shard", int64(i)), obs.Str("node", f.nodes[i]))
	}
}

// part is one shard's contribution to a data fan-out: its decoded state
// and the strong ETag the bytes travelled under.
type part struct {
	*api.ShardState
	etag string
}

// gather fetches and decodes every shard's state. A shard whose bytes
// do not decode is as missing as one that did not answer: what it sent
// cannot be merged, and the fan-out says so instead of guessing. So is
// one that sent no ETag — every collector stamps its answers, so only a
// proxy stripping headers gets here — since a composite validator over
// an untagged part could name two different bodies.
func (f *Fleet) gather(ctx context.Context, fetch func(ctx context.Context, c *client.Client) ([]byte, string, error)) ([]*part, []api.ShardError, []api.ShardTiming) {
	parts := make([]*part, len(f.clients))
	missing, timings := f.eachShard(ctx, func(ctx context.Context, i int, c *client.Client) error {
		body, etag, err := fetch(ctx, c)
		if err != nil {
			return err
		}
		if etag == "" {
			return errors.New("shard sent no validator")
		}
		st, err := api.DecodeState(body)
		if err != nil {
			return err
		}
		parts[i] = &part{st, etag}
		return nil
	})
	return parts, missing, timings
}

// Snapshot implements api.Fanout.
func (f *Fleet) Snapshot(ctx context.Context) (*api.FanResult, error) {
	parts, missing, timings := f.gather(ctx, func(ctx context.Context, c *client.Client) ([]byte, string, error) {
		return c.SnapshotState(ctx)
	})
	return f.merge(parts, missing, timings, time.Time{}, time.Time{})
}

// Query implements api.Fanout. res is forwarded to every shard
// verbatim; each durable shard answers from its own tiers and ships the
// sketches behind its answer, which merge here (estimates cannot be
// summed across shards, sketches can).
func (f *Fleet) Query(ctx context.Context, from, to time.Time, res tier.Resolution) (*api.FanResult, error) {
	resolution := ""
	if res != tier.ResolutionHour {
		resolution = string(res)
	}
	parts, missing, timings := f.gather(ctx, func(ctx context.Context, c *client.Client) ([]byte, string, error) {
		return c.QueryState(ctx, from, to, resolution)
	})
	return f.merge(parts, missing, timings, from, to)
}

// merge folds the gathered parts into one FanResult and renders it with
// the geo model every shard labels its districts from. The range bounds
// trim the merged hour series for queries exactly as a union
// collector's own query path would (a shard's zero-flow gap hours arrive
// as populated-empty bins; the ones outside every shard's actual range
// are dropped again here).
//
// The answering shards must agree on the effective resolution — with a
// concrete day/week request they always do; an auto request against a
// fleet whose shards hold very different history spans can disagree, and
// a mixed-resolution merge would silently sum day buckets into week
// buckets, so it is an error instead.
func (f *Fleet) merge(parts []*part, missing []api.ShardError, timings []api.ShardTiming, from, to time.Time) (*api.FanResult, error) {
	res := &api.FanResult{Missing: missing, Timings: timings}
	var (
		states []*streaming.Stored
		first  *part
		lh     *tier.Builder
		etags  = make([]string, len(parts))
		// The long-horizon sources: a shard's frame stands for all the
		// tier and raw frames behind its answer.
		tierFrames, rawFrames int
	)
	for i, p := range parts {
		if p == nil {
			continue
		}
		etags[i] = p.etag
		if first == nil {
			first = p
			if p.Resolution != "" {
				lh = tier.NewBuilder(p.Resolution, p.Origin, nil)
			}
		} else if !p.Origin.Equal(first.Origin) {
			return nil, fmt.Errorf("cluster: shard %d origin %s differs from fleet origin %s", i, p.Origin, first.Origin)
		} else if p.Resolution != first.Resolution {
			return nil, fmt.Errorf("cluster: shard %d answered at resolution %q, fleet at %q (retry with an explicit resolution)",
				i, p.Resolution, first.Resolution)
		}
		res.Frames += p.Frames
		res.TailIncluded = res.TailIncluded || p.TailIncluded
		states = append(states, p.State)
		if lh != nil {
			lh.AddFrame(p.LongHorizon)
			tierFrames += p.TierFrames
			rawFrames += p.RawFrames
		}
	}
	if first == nil {
		return res, nil // every shard missing; the handler turns this into 503
	}
	m := streaming.Fold(streaming.Config{
		Origin:      first.Origin,
		WindowHours: first.State.Window(),
		TopK:        f.topK,
		Model:       f.model,
	}, from, to, states...)
	if lh == nil {
		res.Snapshot = m.Snapshot()
	} else {
		// The merged exact part is the raw residual: render it under the
		// store's own rule for one (see store.QueryResolution), so routed
		// and single-node answers stay the same bytes.
		res.Snapshot = m.Populated().Snapshot()
		res.Resolution = string(first.Resolution)
		res.LongHorizon = lh.Answer()
		res.LongHorizon.TierFrames, res.LongHorizon.RawFrames = tierFrames, rawFrames
		res.LongHorizon.Label(f.model)
	}
	res.Version = composeVersion(etags)
	return res, nil
}

// composeVersion hashes the per-shard strong ETags, in shard order,
// into the cluster-wide validator token. Any shard's ETag changing —
// new data, a checkpoint bumping its store version, a node restart —
// changes the composite, so the router's 304s are exactly as strong as
// every shard's.
func composeVersion(etags []string) uint64 {
	h := fnv.New64a()
	for i, e := range etags {
		fmt.Fprintf(h, "%d:%s;", i, e)
	}
	return h.Sum64()
}

// Stats implements api.Fanout: the field-wise sum over the reachable
// shards. Store gauges are summed only when every reachable shard is
// durable (a mixed fleet's partial store sum would be misleading);
// LastCheckpoint is the newest across the fleet.
func (f *Fleet) Stats(ctx context.Context) (*api.FanStats, error) {
	resps := make([]*v1.StatsResponse, len(f.clients))
	missing, _ := f.eachShard(ctx, func(ctx context.Context, i int, c *client.Client) error {
		resp, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		resps[i] = resp
		return nil
	})
	out := &api.FanStats{Missing: missing}
	allDurable := true
	sawAny := false
	var sum store.Metrics
	// The watermark is the one counter that must NOT be summed: the
	// fleet's freshness is the minimum over its shards — the cluster has
	// the data up to t only when every shard does.
	shardWm := make([]int64, len(resps))
	fleetWm := int64(0)
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		shardWm[i] = resp.Ingest.WatermarkUnixNano
		if !sawAny || resp.Ingest.WatermarkUnixNano < fleetWm {
			fleetWm = resp.Ingest.WatermarkUnixNano
		}
		sawAny = true
		s := &out.Ingest
		in := resp.Ingest
		s.Packets += in.Packets
		s.Records += in.Records
		s.DecodeErrors += in.DecodeErrors
		s.Processed += in.Processed
		s.DroppedRecords += in.DroppedRecords
		s.DroppedBatches += in.DroppedBatches
		s.ShardFiltered += in.ShardFiltered
		s.SocketErrors += in.SocketErrors
		s.SinkErrors += in.SinkErrors
		s.Sources += in.Sources
		s.SeqGaps += in.SeqGaps
		s.SeqLost += in.SeqLost
		s.SeqReordered += in.SeqReordered
		if resp.Store == nil {
			allDurable = false
			continue
		}
		sum.Segments += resp.Store.Segments
		sum.WALBytes += resp.Store.WALBytes
		sum.Frames += resp.Store.Frames
		sum.FrameRecords += resp.Store.FrameRecords
		sum.TailRecords += resp.Store.TailRecords
		sum.AppendedRecords += resp.Store.AppendedRecords
		sum.AppendedBatches += resp.Store.AppendedBatches
		sum.RecoveredFrames += resp.Store.RecoveredFrames
		sum.RecoveredWALRecords += resp.Store.RecoveredWALRecords
		sum.TruncatedBytes += resp.Store.TruncatedBytes
		sum.Checkpoints += resp.Store.Checkpoints
		sum.CompactedFrames += resp.Store.CompactedFrames
		sum.TierFramesDay += resp.Store.TierFramesDay
		sum.TierFramesWeek += resp.Store.TierFramesWeek
		sum.TierFolds += resp.Store.TierFolds
		if resp.Store.LastCheckpoint.After(sum.LastCheckpoint) {
			sum.LastCheckpoint = resp.Store.LastCheckpoint
		}
	}
	out.Ingest.WatermarkUnixNano = fleetWm
	f.m.setWatermarks(shardWm, fleetWm)
	if sawAny && allDurable {
		out.Store = &sum
	}
	return out, nil
}

// Health implements api.Fanout: every shard that is unreachable or not
// reporting StatusOK.
func (f *Fleet) Health(ctx context.Context) []api.ShardError {
	missing, _ := f.eachShard(ctx, func(ctx context.Context, i int, c *client.Client) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		if h.Status != v1.StatusOK {
			return fmt.Errorf("status %q", h.Status)
		}
		return nil
	})
	return missing
}
