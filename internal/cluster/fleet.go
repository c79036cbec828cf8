// The query-router half of the package: Fleet gathers every shard's
// full API response over the typed client, reconstructs per-shard
// streaming state with streaming.FromSnapshot, folds it with the
// commutative Merge, and composes the per-shard strong ETags into one
// cluster-wide validator. It implements api.Fanout, so cmd/queryrouterd
// is just api.New(Config{Fanout: fleet}).
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/api/client"
	v1 "cwatrace/internal/api/v1"
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

// part is one shard's contribution to a data fan-out.
type part struct {
	snap         *v1.Snapshot
	etag         string
	frames       int
	tailIncluded bool
	// resolution/longHorizon carry the shard's long-horizon block for
	// day/week-resolution query fan-outs (empty on the exact path).
	resolution  string
	longHorizon *tier.Answer
}

// districtName is a shard-rendered district label, keyed by district id
// in the merge's name map.
type districtName struct{ name, state string }

// fullFields requests everything untruncated — the merge needs complete
// per-shard state; field selection and top-K truncation are re-applied
// by the router's own renderer.
var fullFields = &client.ReqOpts{Fields: v1.AllFields, Top: 0}

// Snapshot implements api.Fanout.
func (f *Fleet) Snapshot(ctx context.Context) (*api.FanResult, error) {
	parts := make([]*part, len(f.clients))
	missing, timings := f.eachShard(ctx, func(ctx context.Context, i int, c *client.Client) error {
		snap, etag, err := c.SnapshotTag(ctx, fullFields)
		if err != nil {
			return err
		}
		parts[i] = &part{snap: snap, etag: etag}
		return nil
	})
	return f.merge(parts, missing, timings, time.Time{}, time.Time{})
}

// Query implements api.Fanout. res is forwarded to every shard
// verbatim; each durable shard answers from its own tiers and the
// carried sketch state merges here (estimates cannot be summed across
// shards, sketches can).
func (f *Fleet) Query(ctx context.Context, from, to time.Time, res tier.Resolution) (*api.FanResult, error) {
	opts := *fullFields
	if res != "" && res != tier.ResolutionHour {
		opts.Resolution = string(res)
	}
	parts := make([]*part, len(f.clients))
	missing, timings := f.eachShard(ctx, func(ctx context.Context, i int, c *client.Client) error {
		resp, etag, err := c.QueryTag(ctx, from, to, &opts)
		if err != nil {
			return err
		}
		if resp.Snapshot == nil {
			return fmt.Errorf("cluster: shard query returned no snapshot")
		}
		parts[i] = &part{
			snap:         resp.Snapshot,
			etag:         etag,
			frames:       resp.Frames,
			tailIncluded: resp.TailIncluded,
			resolution:   resp.Resolution,
			longHorizon:  resp.LongHorizon,
		}
		return nil
	})
	return f.merge(parts, missing, timings, from, to)
}

// merge folds the gathered parts into one FanResult. The range bounds
// re-trim the merged hour series for queries (FromSnapshot reconstructs
// zero-gap hours as populated-empty bins; a fresh SnapshotRange drops
// the ones outside every shard's actual range, exactly as the union
// collector's own query path would).
func (f *Fleet) merge(parts []*part, missing []api.ShardError, timings []api.ShardTiming, from, to time.Time) (*api.FanResult, error) {
	res := &api.FanResult{Missing: missing, Timings: timings}
	var (
		m      *streaming.Analytics
		origin time.Time
		names  map[string]districtName
		etags  = make([]string, len(parts))
		tagged int
	)
	for i, p := range parts {
		if p == nil {
			continue
		}
		etags[i] = p.etag
		if p.etag != "" {
			tagged++
		}
		res.Frames += p.frames
		res.TailIncluded = res.TailIncluded || p.tailIncluded
		if m == nil {
			origin = p.snap.Origin
			m = streaming.New(streaming.Config{
				Origin:      origin,
				WindowHours: p.snap.WindowHours,
				TopK:        f.topK,
			})
			names = make(map[string]districtName)
		} else if !p.snap.Origin.Equal(origin) {
			return nil, fmt.Errorf("cluster: shard %d origin %s differs from fleet origin %s",
				i, p.snap.Origin, origin)
		}
		// A day/week answer served entirely from tier frames has an empty
		// raw residual, so its snapshot lists no districts: the names of
		// the long-horizon block then come only from that block itself.
		harvest := func(ds []streaming.DistrictCount) {
			for _, dc := range ds {
				if dc.Name != "" || dc.StateCode != "" {
					names[dc.ID] = districtName{dc.Name, dc.StateCode}
				}
			}
		}
		harvest(p.snap.Districts)
		if p.longHorizon != nil {
			harvest(p.longHorizon.Districts)
		}
		m.Merge(streaming.FromSnapshot(p.snap.Streaming()))
	}
	if m == nil {
		return res, nil // every shard missing; the handler turns this into 503
	}
	snap := m.SnapshotRange(from, to)
	// The merged analytics carries no geo model; re-attach the district
	// names the shards rendered.
	for i := range snap.Districts {
		if e, ok := names[snap.Districts[i].ID]; ok {
			snap.Districts[i].Name = e.name
			snap.Districts[i].StateCode = e.state
		}
	}
	res.Snapshot = snap
	if err := f.mergeLongHorizon(res, parts, origin, names); err != nil {
		return nil, err
	}
	res.Version = composeVersion(etags)
	res.Validated = len(missing) == 0 && tagged == len(parts)
	return res, nil
}

// mergeLongHorizon folds the shards' long-horizon answers into one. The
// answering shards must agree on the effective resolution — with a
// concrete day/week request they always do; an auto request against a
// fleet whose shards hold very different history spans can disagree,
// and a mixed-resolution merge would silently sum day buckets into week
// buckets, so it is an error instead. Sketch state merges through
// tier.Builder.MergeAnswer; corrupt sketch bytes from a shard fail the
// fan-out rather than merging garbage.
func (f *Fleet) mergeLongHorizon(res *api.FanResult, parts []*part, origin time.Time, names map[string]districtName) error {
	resolution := ""
	any := false
	for i, p := range parts {
		if p == nil {
			continue
		}
		if !any {
			resolution = p.resolution
			any = true
		} else if p.resolution != resolution {
			return fmt.Errorf("cluster: shard %d answered at resolution %q, fleet at %q (retry with an explicit resolution)",
				i, p.resolution, resolution)
		}
	}
	if !any || resolution == "" {
		return nil // exact hourly path: no long-horizon block to merge
	}
	b := tier.NewBuilder(tier.Resolution(resolution), origin)
	for i, p := range parts {
		if p == nil {
			continue
		}
		if p.longHorizon == nil {
			return fmt.Errorf("cluster: shard %d answered at resolution %q without a long-horizon block", i, resolution)
		}
		if err := b.MergeAnswer(p.longHorizon); err != nil {
			return fmt.Errorf("cluster: shard %d long-horizon sketches: %w", i, err)
		}
	}
	ans := b.Answer()
	// The builder carries no geo model; re-attach the names the shards
	// rendered, same as the merged snapshot's districts.
	for i := range ans.Districts {
		if e, ok := names[ans.Districts[i].ID]; ok {
			ans.Districts[i].Name = e.name
			ans.Districts[i].StateCode = e.state
		}
	}
	res.Resolution = resolution
	res.LongHorizon = ans
	return nil
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
