// Package ingest is the live collector subsystem: it receives NFv9 export
// datagrams over UDP, decodes them with per-exporter-source template and
// sequence state, and pushes the records through a bounded, batched,
// multi-worker pipeline into a Sink — in collectord always the store
// (internal/store), which owns every aggregate. The pipeline itself keeps
// counters only.
//
// The shape mirrors the paper's vantage point — border routers exporting
// sampled Netflow to a collector that analyzes in near-real time — and the
// ROADMAP's scaling posture: per-socket reader goroutines own the decoder
// state (no locks on the datagram path beyond one uncontended mutex),
// records fan out round-robin over bounded per-lane channels, and under
// backpressure the dispatcher drops batches and counts them instead of
// blocking the socket, exactly like a real collector protecting its
// receive buffer. Aggregation is commutative (see internal/streaming), so
// what the sink holds is identical at any worker count.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
)

// Sink receives every batch a worker processed — the hook the durable
// store (internal/store) plugs into. Append must not retain the batch;
// it is recycled once the worker is done with it. Append runs on worker
// goroutines, so implementations must be safe for concurrent use.
type Sink interface {
	Append(batch []netflow.Record) error
}

// GroupSink is the optional group-commit side of a Sink: a worker hands
// it everything it found queued on its lane — one or more non-empty
// batches — as a single commit, so a durable sink can pay one write and
// one fsync for the lot. A Sink that does not implement it is fed the
// group batch by batch. The rules of Append apply: nothing is retained,
// calls run concurrently on the worker goroutines.
type GroupSink interface {
	AppendGroup(batches [][]netflow.Record) error
}

// Flusher is the optional periodic-flush side of a Sink: when the sink
// implements it and FlushInterval is set, the pipeline calls Flush on
// that cadence (and once more after the final drain). The store uses it
// as its interval fsync policy.
type Flusher interface {
	Flush() error
}

// Config parameterizes a Pipeline.
type Config struct {
	// Listen is the set of UDP listen addresses; each gets its own socket
	// and reader goroutine ("127.0.0.1:0" picks an ephemeral test port).
	// Empty means no sockets: records enter only via inject (benchmarks).
	Listen []string
	// Workers is the number of lanes and worker goroutines, each of which
	// commits to the sink on its own (0 = runtime.NumCPU(), 1 = serial).
	Workers int
	// ShardBuffer is the per-lane channel capacity in batches (default
	// 256). Together with the ≤MTU batch size and the one commit group
	// (≤ maxCommitGroup batches) each worker holds, it bounds pipeline
	// memory.
	ShardBuffer int
	// Deprecated: ignored; deleted with ROADMAP item 1.
	Analytics streaming.Config
	// Sink, when set, receives every processed batch, through AppendGroup
	// when it is a GroupSink: it owns every aggregate. Errors are counted
	// as SinkErrors, never fatal: a full disk degrades durability, it
	// must not stop the collector. Nil only counts.
	Sink Sink
	// Deprecated: ignored; deleted with ROADMAP item 1.
	SinkOnly bool
	// ShardFilter, when set, drops every record this node does not own
	// under a cluster partition (internal/cluster.Assignment.Filter)
	// before it reaches the sink. Discards are counted
	// as ShardFiltered — they are part of the cluster contract, not a
	// loss. Nil keeps everything (the unsharded default).
	ShardFilter func(r *netflow.Record) bool
	// FlushInterval is the cadence of the periodic flush hook (0
	// disables). Only meaningful when Sink implements Flusher.
	FlushInterval time.Duration
	// Logf, when set, receives operational log lines (log.Printf
	// signature): effective socket buffer sizes, clamping warnings. Nil
	// disables logging.
	Logf func(format string, args ...any)
	// Metrics, when set, registers the pipeline's telemetry on the
	// registry (see metrics.go for the catalogue). Nil (obs.Disabled)
	// runs uninstrumented: the hot paths then pay one nil check per
	// event and nothing else — the contract make obs-gate audits.
	Metrics *obs.Registry
	// Tracer, when set, records background traces for the coarse
	// pipeline operations: one per sink flush, one for the Close drain.
	// Nothing per-record or per-batch — the hot path stays span-free,
	// which is how the obs-gate overhead budget holds with tracing
	// enabled. Nil disables.
	Tracer *obs.Tracer
	// Events, when set, receives drop_storm flight-recorder events: one
	// at backpressure onset, then rate-limited while the storm lasts
	// (the drop branch is the hot path under overload, so it must not
	// record per drop). Nil disables.
	Events *obs.EventRing

	// workerDelay slows every worker batch (a commit group sleeps once
	// per batch it carries); the backpressure tests use it to simulate an
	// overloaded consumer.
	workerDelay time.Duration
}

// logf forwards to cfg.Logf when configured.
func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// readBuffer is the socket receive buffer the pipeline asks for, so short
// export bursts survive scheduling hiccups. A constant rather than an
// option: no daemon or harness ever set a second value.
const readBuffer = 8 << 20

// maxDatagramLen bounds one UDP datagram (65535 payload bytes); receive
// buffers are sized to it so no export packet is ever truncated.
const maxDatagramLen = 65536

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.ShardBuffer <= 0 {
		c.ShardBuffer = 256
	}
	return c
}

// Stats is a point-in-time view of the pipeline counters.
type Stats struct {
	// Packets and Records count decoded datagrams and their records;
	// DecodeErrors counts datagrams the decoder rejected.
	Packets      uint64 `json:"packets"`
	Records      uint64 `json:"records"`
	DecodeErrors uint64 `json:"decode_errors"`
	// Processed counts records a worker consumed and handed to the sink
	// (shard-filtered ones included); DroppedRecords/DroppedBatches count
	// backpressure losses between the socket and the lanes. Records ==
	// Processed + DroppedRecords + records still queued.
	Processed      uint64 `json:"processed"`
	DroppedRecords uint64 `json:"dropped_records"`
	DroppedBatches uint64 `json:"dropped_batches"`
	// ShardFiltered counts processed records discarded by the cluster
	// shard filter (records another node owns); they are included in
	// Processed, so the drain invariant above is unchanged.
	ShardFiltered uint64 `json:"shard_filtered,omitempty"`
	// SocketErrors counts transient receive errors the readers retried.
	SocketErrors uint64 `json:"socket_errors"`
	// SinkErrors counts failed sink flushes and the batches of failed
	// sink appends (batches the store counts but may not have made
	// durable; a failed group commit counts every batch it carried).
	SinkErrors uint64 `json:"sink_errors"`
	// Sources is the number of distinct exporter sources seen. SeqGaps,
	// SeqLost and SeqReordered aggregate the per-source sequence audits
	// (RFC 3954 export loss detection).
	Sources      int    `json:"sources"`
	SeqGaps      int    `json:"seq_gaps"`
	SeqLost      uint64 `json:"seq_lost"`
	SeqReordered int    `json:"seq_reordered"`
	// WatermarkUnixNano is the freshness watermark: the newest record
	// start timestamp (UnixNano) any worker has consumed, maxed over the
	// shard lanes. Zero until the first batch lands. Wall clock minus
	// the watermark is how far behind the wire the served analytics are;
	// the cluster router takes the fleet-wide min of its shards' values.
	WatermarkUnixNano int64 `json:"watermark_unix_nano,omitempty"`
}

// shardLane is one bounded channel plus the counters of the worker
// draining it. Lanes carry slabs, not bare slices: the slab travels from
// decode through the worker and back into the shared pool with its
// storage attached, so the steady-state round trip allocates nothing.
type shardLane struct {
	ch chan *netflow.Slab

	processed      atomic.Uint64
	droppedRecords atomic.Uint64
	droppedBatches atomic.Uint64
	shardFiltered  atomic.Uint64
	sinkErrors     atomic.Uint64
	// watermark is the newest record start timestamp (UnixNano) this
	// lane's worker has consumed — written by the single worker
	// goroutine, read by Stats and the metrics render.
	watermark atomic.Int64

	tick uint64 // batch-timing sample counter; worker goroutine only
}

// sourceKey identifies one exporter source: the sending address plus the
// observation-domain SourceID, the scope RFC 3954 gives template tables
// and sequence numbers.
type sourceKey struct {
	from   string
	domain uint32
}

// reader owns one socket and the decoder state of every source that sent
// to it. mu guards sources against Stats; the reader goroutine is the only
// writer.
type reader struct {
	pc net.PacketConn

	mu      sync.Mutex
	sources map[sourceKey]*nfv9.Decoder
	// lastKey/lastDec memoize the most recent source lookup (guarded by
	// mu like the map): exporters send packet trains, so consecutive
	// datagrams overwhelmingly repeat the source and skip the map probe.
	lastKey sourceKey
	lastDec *nfv9.Decoder

	packets      atomic.Uint64
	records      atomic.Uint64
	decodeErrors atomic.Uint64
	socketErrors atomic.Uint64

	rr   int    // round-robin dispatch cursor; reader goroutine only
	tick uint64 // decode-timing sample counter; reader goroutine only
}

// Pipeline is the running collector: sockets → decoders → lane channels →
// workers → sink.
type Pipeline struct {
	cfg     Config
	readers []*reader
	lanes   []*shardLane
	m       pipelineMetrics

	readerWG sync.WaitGroup
	workerWG sync.WaitGroup

	flushStop   chan struct{}
	flushWG     sync.WaitGroup
	flushErrors atomic.Uint64

	// dropStormAt is the unix-nano stamp of the last drop_storm event;
	// the CAS in noteDropStorm rate-limits the storm events to one per
	// 10s however many lanes are dropping.
	dropStormAt atomic.Int64

	closeOnce sync.Once
	closed    atomic.Bool
	closeErr  error
}

// New starts a pipeline: it binds every listen address and launches the
// reader and worker goroutines. Callers must Close it.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	p := &Pipeline{cfg: cfg}
	p.m.register(cfg.Metrics)

	for i := 0; i < cfg.Workers; i++ {
		lane := &shardLane{ch: make(chan *netflow.Slab, cfg.ShardBuffer)}
		p.lanes = append(p.lanes, lane)
		p.workerWG.Add(1)
		go p.work(lane)
	}

	if fl, ok := cfg.Sink.(Flusher); ok && cfg.FlushInterval > 0 {
		p.flushStop = make(chan struct{})
		p.flushWG.Add(1)
		go p.flushLoop(fl)
	}

	// Sockets bind after the lanes so the registry-backed gauges (which
	// walk p.lanes) are complete before the first datagram can arrive.
	registerPipelineFuncs(cfg.Metrics, p)
	for _, addr := range cfg.Listen {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			p.shutdown()
			return nil, fmt.Errorf("ingest: listening on %s: %w", addr, err)
		}
		// Size the receive buffer and report what the kernel actually
		// granted — a silently clamped buffer only shows up later as
		// mysterious burst drops. Clamping is still non-fatal: it raises
		// the drop counters, never corrupts the stream.
		setReadBuffer(pc, readBuffer, p.cfg.logf)
		r := &reader{pc: pc, sources: make(map[sourceKey]*nfv9.Decoder)}
		p.readers = append(p.readers, r)
		p.readerWG.Add(1)
		go p.read(r)
	}
	return p, nil
}

// Addrs returns the bound listen addresses, in Listen order.
func (p *Pipeline) Addrs() []string {
	var out []string
	for _, r := range p.readers {
		if r.pc != nil {
			out = append(out, r.pc.LocalAddr().String())
		}
	}
	return out
}

// read is one socket's receive loop; the actual loop body is
// platform-selected (recvmmsg batching on linux, the portable
// one-datagram ReadFrom loop elsewhere — see sockread_linux.go and
// sockread_other.go). Only a closed socket ends it: transient errors
// (ICMP-induced ECONNREFUSED, ENOBUFS, ...) are counted and retried, so a
// long-running collector never silently loses a socket.
func (p *Pipeline) read(r *reader) {
	defer p.readerWG.Done()
	p.readLoop(r)
}

// readPortable is the fallback receive loop: one datagram per syscall.
// The linux batched reader also falls back to it for non-UDP sockets.
func (p *Pipeline) readPortable(r *reader) {
	buf := make([]byte, maxDatagramLen)
	for {
		n, from, err := r.pc.ReadFrom(buf)
		if err != nil {
			if p.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			r.socketErrors.Add(1)
			// Breathe before retrying so a persistently failing socket
			// cannot spin the CPU.
			time.Sleep(time.Millisecond)
			continue
		}
		p.handleDatagram(r, from.String(), buf[:n])
	}
}

// handleDatagram decodes one export packet and dispatches its records.
// The benchmark calls it directly to measure the pipeline without UDP.
// Decoder state is scoped per (sender address, observation-domain
// SourceID) as RFC 3954 requires: one router exporting several domains
// over one socket gets one template table and sequence audit per domain.
func (p *Pipeline) handleDatagram(r *reader, from string, data []byte) {
	// Sampled stage timing: every 64th datagram pays two clock reads and
	// one observation into the shared histogram; the rest pay one
	// increment and a nil check. The thin rate matters under parallel
	// readers — the histogram's sum is a shared CAS cache line, and
	// sampling it any denser shows up in the benjson -obs overhead gate.
	timed := p.m.decodeSeconds != nil && r.tick&0x3f == 0
	r.tick++
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	sourceID, ok := nfv9.PeekSourceID(data)
	if !ok {
		r.decodeErrors.Add(1)
		return
	}
	key := sourceKey{from: from, domain: sourceID}
	slab := netflow.GetSlab()
	r.mu.Lock()
	var dec *nfv9.Decoder
	known := true
	if r.lastDec != nil && key == r.lastKey {
		dec = r.lastDec
	} else if dec, known = r.sources[key]; !known {
		dec = nfv9.NewDecoder(from)
	}
	recs, _, err := dec.DecodeInto(data, slab.Recs)
	slab.Recs = recs
	if err == nil && !known {
		// Per-source state is only retained once a packet from the
		// source actually decoded, so spoofed or garbage datagrams
		// cannot grow the map without bound.
		r.sources[key] = dec
	}
	if err == nil {
		r.lastKey, r.lastDec = key, dec
	}
	r.mu.Unlock()
	if err != nil {
		r.decodeErrors.Add(1)
		netflow.RecycleSlab(slab)
		return
	}
	r.packets.Add(1)
	if timed {
		p.m.decodeSeconds.ObserveSince(t0)
	}
	if len(slab.Recs) == 0 {
		netflow.RecycleSlab(slab)
		return
	}
	r.records.Add(uint64(len(slab.Recs)))

	lane := p.lanes[r.rr%len(p.lanes)]
	r.rr++
	select {
	case lane.ch <- slab:
	default:
		// Backpressure: never block the socket. Drop the batch, count
		// it, recycle the storage. Under sustained overload drops ARE
		// the hot path, and anything unsampled here is a measurable
		// throughput tax exactly when the collector can least afford
		// one: the flight-recorder event is gated 1-in-64 off the drop
		// counter itself (plus its own 10s rate limit inside), so the
		// storm's onset is recorded without taxing every drop.
		n := lane.droppedBatches.Add(1)
		lane.droppedRecords.Add(uint64(len(slab.Recs)))
		if p.cfg.Events != nil && n&0x3f == 1 {
			p.noteDropStorm()
		}
		netflow.RecycleSlab(slab)
	}
}

// noteDropStorm records the drop_storm flight-recorder event: the
// first drop of a storm fires immediately (dropStormAt starts 0), then
// at most one event per 10s while drops continue. The CAS hands the
// record to exactly one caller per window.
func (p *Pipeline) noteDropStorm() {
	now := time.Now().UnixNano()
	last := p.dropStormAt.Load()
	if now-last < int64(10*time.Second) {
		return
	}
	if !p.dropStormAt.CompareAndSwap(last, now) {
		return
	}
	var batches, records uint64
	for _, l := range p.lanes {
		batches += l.droppedBatches.Load()
		records += l.droppedRecords.Load()
	}
	p.cfg.Events.Record("drop_storm", "backpressure is dropping batches",
		obs.Int("dropped_batches", int64(batches)),
		obs.Int("dropped_records", int64(records)))
}

// maxCommitGroup caps how many queued batches a worker commits at once.
// It bounds what a worker holds outside its lane (64 datagrams ≈ 2k
// records) and how long a commit can run before processed moves; past a
// few dozen batches the per-commit costs (one write, one fsync) are
// amortized away anyway.
const maxCommitGroup = 64

// work drains one lane into the sink. It commits what is queued, not one datagram: the first slab is awaited,
// whatever else the lane holds (up to maxCommitGroup) is taken without
// blocking, and the group goes through commit as one unit. An idle lane
// therefore yields groups of one and a backed-up lane amortizes the
// sink's per-commit cost over the backlog — the batching adapts to load
// with no timer and no added latency.
func (p *Pipeline) work(lane *shardLane) {
	defer p.workerWG.Done()
	group, _ := p.cfg.Sink.(GroupSink)
	slabs := make([]*netflow.Slab, 0, maxCommitGroup)
	batches := make([][]netflow.Record, 0, maxCommitGroup)
	for slab := range lane.ch {
		slabs = append(slabs[:0], slab)
	drain:
		for len(slabs) < maxCommitGroup {
			select {
			case next, ok := <-lane.ch:
				if !ok {
					break drain
				}
				slabs = append(slabs, next)
			default:
				break drain
			}
		}
		p.commit(lane, group, slabs, batches)
	}
}

// commit processes one group of slabs: watermark and shard filter per
// batch, one sink commit, and only then the processed counter and the
// slab recycling — so "processed" still
// implies "handed to the sink and returned" (written, and under the
// store's always policy fsynced). batches is the worker's scratch
// slice for the non-empty filtered batches.
func (p *Pipeline) commit(lane *shardLane, group GroupSink, slabs []*netflow.Slab, batches [][]netflow.Record) {
	if p.cfg.workerDelay > 0 {
		time.Sleep(time.Duration(len(slabs)) * p.cfg.workerDelay)
	}
	timed := p.m.batchSeconds != nil && lane.tick&0x3f == 0
	lane.tick++
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	// Freshness watermark: the newest record start time in the group,
	// taken before the shard filter — staleness is measured against
	// what arrived off the wire, whoever owns it. One branch per
	// record over memory the worker is about to walk anyway, and the
	// lane has a single worker, so a plain load/store suffices.
	var wm int64
	received := 0
	batches = batches[:0]
	for _, slab := range slabs {
		batch := slab.Recs
		for i := range batch {
			if n := batch[i].First.UnixNano(); n > wm {
				wm = n
			}
		}
		received += len(batch)
		if p.cfg.ShardFilter != nil {
			// Compact in place: kept trails the read index, so this never
			// clobbers an unread record, and the slab keeps its storage.
			kept := batch[:0]
			for i := range batch {
				if p.cfg.ShardFilter(&batch[i]) {
					kept = append(kept, batch[i])
				}
			}
			lane.shardFiltered.Add(uint64(len(batch) - len(kept)))
			batch = kept
		}
		if len(batch) > 0 {
			batches = append(batches, batch)
		}
	}
	if wm > lane.watermark.Load() {
		lane.watermark.Store(wm)
	}
	// Errors degrade durability, never availability; they are counted in
	// batches.
	switch {
	case p.cfg.Sink == nil || len(batches) == 0:
	case group != nil:
		if err := group.AppendGroup(batches); err != nil {
			lane.sinkErrors.Add(uint64(len(batches)))
		}
	default:
		for _, batch := range batches {
			if err := p.cfg.Sink.Append(batch); err != nil {
				lane.sinkErrors.Add(1)
			}
		}
	}
	// Processed counts everything the worker consumed, shard-filtered
	// records included, so Drained's invariant survives sharding.
	lane.processed.Add(uint64(received))
	for _, slab := range slabs {
		netflow.RecycleSlab(slab)
	}
	if timed {
		p.m.batchSeconds.ObserveSince(t0)
	}
}

// flushLoop is the periodic flush hook: it drives the sink's Flush on
// the configured cadence until shutdown, then once more after the final
// drain so everything processed is flushed before Close returns.
func (p *Pipeline) flushLoop(fl Flusher) {
	defer p.flushWG.Done()
	t := time.NewTicker(p.cfg.FlushInterval)
	defer t.Stop()
	// Each flush is its own background trace (tail-sampled like any
	// other: a slow or failing fsync cadence surfaces in the ring).
	flush := func(final bool) {
		_, sp := p.cfg.Tracer.StartTrace(context.Background(), "ingest.sink_flush", 0)
		sp.Set(obs.Bool("final", final))
		if err := fl.Flush(); err != nil {
			p.flushErrors.Add(1)
			sp.Fail(err)
		}
		sp.End()
	}
	for {
		select {
		case <-t.C:
			flush(false)
		case <-p.flushStop:
			flush(true)
			return
		}
	}
}

// RegisterMetrics registers the pipeline's telemetry on reg after
// construction — the route for a pipeline whose state is frozen (the
// drained demo pipeline collectord -demo -serve keeps exposing). A live
// pipeline must use Config.Metrics instead: this path installs the
// stage-timing histograms without synchronizing with running workers.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	p.m.register(reg)
	registerPipelineFuncs(reg, p)
}

// Stats sums the live counters.
func (p *Pipeline) Stats() Stats {
	var s Stats
	for _, r := range p.readers {
		s.Packets += r.packets.Load()
		s.Records += r.records.Load()
		s.DecodeErrors += r.decodeErrors.Load()
		s.SocketErrors += r.socketErrors.Load()
		r.mu.Lock()
		s.Sources += len(r.sources)
		for _, dec := range r.sources {
			gaps, lost, reordered := dec.SequenceStats()
			s.SeqGaps += gaps
			s.SeqLost += lost
			s.SeqReordered += reordered
		}
		r.mu.Unlock()
	}
	for _, lane := range p.lanes {
		s.Processed += lane.processed.Load()
		s.DroppedRecords += lane.droppedRecords.Load()
		s.DroppedBatches += lane.droppedBatches.Load()
		s.ShardFiltered += lane.shardFiltered.Load()
		s.SinkErrors += lane.sinkErrors.Load()
		if wm := lane.watermark.Load(); wm > s.WatermarkUnixNano {
			s.WatermarkUnixNano = wm
		}
	}
	s.SinkErrors += p.flushErrors.Load()
	return s
}

// Drained reports whether every record that entered the pipeline has been
// processed or counted as dropped — i.e. the shard channels are empty.
func (p *Pipeline) Drained() bool {
	s := p.Stats()
	return s.Records == s.Processed+s.DroppedRecords
}

// Close performs a graceful drain: it stops the sockets, lets the workers
// finish every queued batch, and only then returns. Stats remains valid
// (and final) afterwards.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(p.shutdown)
	return p.closeErr
}

func (p *Pipeline) shutdown() {
	// The drain is one background trace: how long the queued work took
	// to finish is exactly what a slow SIGTERM postmortem asks.
	_, sp := p.cfg.Tracer.StartTrace(context.Background(), "ingest.drain", 0)
	defer func() {
		s := p.Stats()
		sp.Set(obs.Int("processed", int64(s.Processed)),
			obs.Int("dropped_records", int64(s.DroppedRecords)))
		sp.Fail(p.closeErr)
		sp.End()
	}()
	p.closed.Store(true)
	for _, r := range p.readers {
		if r.pc == nil {
			continue
		}
		if err := r.pc.Close(); err != nil && p.closeErr == nil {
			p.closeErr = err
		}
	}
	p.readerWG.Wait()
	for _, lane := range p.lanes {
		close(lane.ch)
	}
	p.workerWG.Wait()
	if p.flushStop != nil {
		// Stop the flush hook only after the workers drained, so its
		// final Flush covers every processed batch.
		close(p.flushStop)
		p.flushWG.Wait()
	}
}
