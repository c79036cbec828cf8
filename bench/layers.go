package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/cluster"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/ingest"
	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
	"cwatrace/internal/sketch"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// The direct timings: public functions of single layers, called on the
// run's own inputs. Each loops long enough to dwarf the clock (tens of
// milliseconds) and short enough that the whole set adds a few seconds.

// timeLoop calls fn until at least span has passed (and at least
// minIters times) and returns the mean time per call.
func timeLoop(span time.Duration, minIters int, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < minIters || time.Since(start) < span {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

type noopSink struct{}

func (noopSink) Append([]netflow.Record) error { return nil }

// packets encodes recs into datagrams of maxPerPacket records, the way
// the generator does.
func packets(recs []netflow.Record, source uint32) ([][]byte, error) {
	enc := nfv9.NewEncoder(source)
	var out [][]byte
	for i := 0; i < len(recs); i += maxPerPacket {
		if (i/maxPerPacket)%templateEvery == 0 {
			enc.Reset()
		}
		pkt, err := enc.Encode(recs[i:min(i+maxPerPacket, len(recs))], recs[i].First)
		if err != nil {
			return nil, err
		}
		out = append(out, pkt)
	}
	return out, nil
}

// directLayers runs every direct timing. sample is a study-window trace
// in time order; fixture is the unsharded fixture directory.
func (r *run) directLayers(sample []netflow.Record, fixture string) error {
	acfg := r.in.acfg
	layerSpan := r.in.layerSpan
	n := min(len(sample), 60000)
	recs := sample[:n]
	pkts, err := packets(recs, 1)
	if err != nil {
		return err
	}

	// nfv9: decode and encode.
	dec := nfv9.NewDecoder("bench")
	buf := make([]netflow.Record, 0, maxPerPacket)
	decodeAll := func() {
		for _, p := range pkts {
			out, _, err := dec.DecodeInto(p, buf[:0])
			if err != nil {
				panic(fmt.Sprintf("decoding a datagram this harness encoded: %v", err))
			}
			sink = out
		}
	}
	decodeAll() // learn the templates
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decodeAll()
	runtime.ReadMemStats(&ms1)
	r.set("nfv9.decode_allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(pkts)), "count")
	per := timeLoop(layerSpan, 1, decodeAll)
	r.set("nfv9.decode_ns_per_rec", float64(per)/float64(n), "ns")
	enc := nfv9.NewEncoder(2)
	per = timeLoop(layerSpan, 1, func() {
		for i := 0; i < n; i += maxPerPacket {
			pkt, _ := enc.Encode(recs[i:min(i+maxPerPacket, n)], recs[i].First)
			sink = pkt
		}
	})
	r.set("nfv9.encode_ns_per_rec", float64(per)/float64(n), "ns")

	if err := r.pipeNoop(pkts, n); err != nil {
		return err
	}

	// streaming: ingest, then the codec and merge on one day's state.
	per = timeLoop(layerSpan, 1, func() {
		a := streaming.New(acfg)
		a.Ingest(recs)
		sink = a
	})
	r.set("streaming.ingest_ns_per_rec", float64(per)/float64(n), "ns")
	day := streaming.New(withArchive(acfg))
	dayRecs := splitByDay(sample)[1]
	day.Ingest(dayRecs)
	frame, err := day.MarshalBinary()
	if err != nil {
		return err
	}
	r.set("streaming.marshal_us", us(timeLoop(layerSpan, 3, func() { sink, _ = day.MarshalBinary() })), "us")
	r.set("streaming.unmarshal_us", us(timeLoop(layerSpan, 3, func() {
		a, err := streaming.UnmarshalAnalyticsStored(acfg, frame)
		if err != nil {
			panic(fmt.Sprintf("unmarshaling a frame just marshaled: %v", err))
		}
		sink = a
	})), "us")
	r.set("streaming.merge_us", us(timeLoop(layerSpan, 3, func() {
		m := streaming.New(acfg)
		m.Merge(day)
		sink = m
	})), "us")
	whole := streaming.New(acfg)
	whole.Ingest(sample)
	snap := whole.Snapshot()
	r.set("streaming.snapshot_us", us(timeLoop(layerSpan, 3, func() { sink = whole.Snapshot() })), "us")
	r.set("streaming.from_snapshot_us", us(timeLoop(layerSpan, 3, func() { sink = streaming.FromSnapshot(snap) })), "us")

	// tier and sketch.
	meta := tier.Meta{Seq: 1, BaseSeg: 0, CoveredSeg: 1}
	if lo, hi, ok := day.Bounds(); ok {
		meta.MinHour, meta.MaxHour = int64(lo), int64(hi)
	}
	r.set("tier.fold_day_ms", us(timeLoop(layerSpan, 3, func() {
		f, err := tier.FoldRaw(tier.LevelDay, 2, acfg, []tier.Input{{Meta: meta, State: day}})
		if err != nil {
			panic(fmt.Sprintf("folding one day: %v", err))
		}
		sink = f
	}))/1e3, "ms")
	if err := r.tierFrames(fixture); err != nil {
		return err
	}
	r.distinctError(sample)

	// cluster: the shard-ownership test every sharded node runs per record.
	owns := cluster.Assignment{Index: 0, Count: fixtureShards}.Filter(acfg.DB)
	per = timeLoop(layerSpan, 1, func() {
		kept := 0
		for i := range recs {
			if owns(&recs[i]) {
				kept++
			}
		}
		sink = kept
	})
	r.set("cluster.owner_ns_per_rec", float64(per)/float64(n), "ns")

	if err := r.appendScaling(recs); err != nil {
		return err
	}
	return r.fixtureLayers(fixture)
}

func withArchive(c streaming.Config) streaming.Config {
	c.Archive = true
	return c
}

// pipeNoop pushes the datagrams through a real ingest.Pipeline over
// loopback UDP into a sink that does nothing: socket read, decode and
// dispatch without the store. It sends in windows so nothing is dropped.
func (r *run) pipeNoop(pkts [][]byte, records int) error {
	p, err := ingest.New(ingest.Config{
		Listen:    []string{"127.0.0.1:0"},
		Workers:   2,
		Analytics: r.in.acfg,
		Sink:      noopSink{},
		SinkOnly:  true,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	c, err := net.Dial("udp", p.Addrs()[0])
	if err != nil {
		return err
	}
	defer c.Close()
	const burst = 128 // datagrams in flight: well inside the two 256-batch lanes
	var total time.Duration
	rounds := 0
	for start := time.Now(); time.Since(start) < 4*r.in.layerSpan; rounds++ {
		before := p.Stats().Packets
		t0 := time.Now()
		for i, pkt := range pkts {
			if _, err := c.Write(pkt); err != nil {
				return err
			}
			if (i+1)%burst == 0 {
				want := before + uint64(i+1)
				for deadline := time.Now().Add(time.Second); p.Stats().Packets < want; {
					if time.Now().After(deadline) {
						return fmt.Errorf("pipe_noop: loopback lost datagrams (%d of %d arrived)", p.Stats().Packets-before, i+1)
					}
					runtime.Gosched()
				}
			}
		}
		for deadline := time.Now().Add(time.Second); !p.Drained() || p.Stats().Packets < before+uint64(len(pkts)); {
			if time.Now().After(deadline) {
				return fmt.Errorf("pipe_noop: pipeline did not drain")
			}
			runtime.Gosched()
		}
		total += time.Since(t0)
	}
	r.set("ingest.pipe_noop_ns_per_rec", float64(total)/float64(rounds)/float64(records), "ns")
	return nil
}

// appendScaling times Store.Append with one and with two concurrent
// appenders on fresh stores: a ratio near 1 means the single append
// mutex, not the callers, sets the ceiling.
func (r *run) appendScaling(recs []netflow.Record) error {
	rate := func(appenders int) (float64, error) {
		dir, err := os.MkdirTemp(r.sb.dir, "append-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{Analytics: r.in.acfg, Sync: store.SyncNever, Tier: true})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var wg sync.WaitGroup
		errs := make([]error, appenders)
		t0 := time.Now()
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Appender a takes every appenders-th datagram-sized batch.
				for i := a * maxPerPacket; i < len(recs); i += appenders * maxPerPacket {
					if err := st.Append(recs[i:min(i+maxPerPacket, len(recs))]); err != nil {
						errs[a] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		took := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(len(recs)) / took.Seconds(), nil
	}
	var one, two []float64
	for i := 0; i < 3; i++ {
		r1, err := rate(1)
		if err != nil {
			return err
		}
		r2, err := rate(2)
		if err != nil {
			return err
		}
		one, two = append(one, r1), append(two, r2)
	}
	r.set("store.append_direct_ns_per_rec", 1e9/median(one), "ns")
	r.set("store.append_2x_speedup", median(two)/median(one), "ratio")
	return nil
}

// tierFrames times decoding one day tier frame of the fixture and
// merging two frames' HLL sketches.
func (r *run) tierFrames(fixture string) error {
	files, err := filepath.Glob(filepath.Join(fixture, "tier-d-*.tf"))
	if err != nil || len(files) < 2 {
		return fmt.Errorf("fixture %s holds %d day tier frames, want at least 2 (err %v)", fixture, len(files), err)
	}
	data, err := os.ReadFile(files[len(files)/2])
	if err != nil {
		return err
	}
	var frames []*tier.Frame
	for _, f := range files[:2] {
		d, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		fr, err := tier.DecodeFrame(d)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		frames = append(frames, fr)
	}
	layerSpan := r.in.layerSpan
	r.set("tier.decode_frame_us", us(timeLoop(layerSpan, 3, func() {
		f, err := tier.DecodeFrame(data)
		if err != nil {
			panic(fmt.Sprintf("decoding a fixture tier frame: %v", err))
		}
		sink = f
	})), "us")
	r.set("sketch.hll_merge_us", us(timeLoop(layerSpan, 3, func() {
		h := sketch.NewHLL()
		h.Merge(frames[0].Prefixes)
		h.Merge(frames[1].Prefixes)
		sink = h
	}))/2, "us")
	return nil
}

// distinctError compares the HLL estimate of the sample's kept client
// /24s with the exact count. query_only replaces it with the error of
// the routed day-resolution answer.
func (r *run) distinctError(sample []netflow.Record) {
	if _, done := r.m["sketch.distinct_err_pct"]; done {
		return
	}
	cf := core.DefaultFilter().Compile()
	h := sketch.NewHLL()
	exact := make(map[string]struct{})
	for i := range sample {
		if cf.Classify(&sample[i]) != core.Kept {
			continue
		}
		if p, err := sample[i].Dst.Prefix(24); err == nil {
			s := p.String()
			h.Add(s)
			exact[s] = struct{}{}
		}
	}
	errPct := 0.0
	if len(exact) > 0 {
		errPct = 100 * math.Abs(float64(h.Estimate())-float64(len(exact))) / float64(len(exact))
	}
	r.set("sketch.distinct_err_pct", errPct, "%")
}

// fixtureLayers times what needs the year fixture: opening it, and the
// API's year-span hour response with and without gzip.
func (r *run) fixtureLayers(fixture string) error {
	var st *store.Store
	open := timeLoop(0, 3, func() {
		if st != nil {
			st.Close()
		}
		var err error
		st, err = store.Open(fixture, store.Options{Analytics: r.in.acfg, ReadOnly: true})
		if err != nil {
			panic(fmt.Sprintf("opening the fixture read-only: %v", err))
		}
	})
	defer st.Close()
	r.set("store.open_ms", ms(open), "ms")
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		return err
	}
	// The fixture may have grown past its own days (mixed_steady appends
	// to it); the request is pinned to the fixture's own span either way.
	to := r.in.fixtureEnd
	layerSpan := r.in.layerSpan
	url := fmt.Sprintf("/api/v1/query?from=%d&to=%d&resolution=hour", entime.StudyStart.Unix(), to.Unix())
	serve := func(gzip bool) int {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		if gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("in-process %s: status %d", url, w.Code))
		}
		return w.Body.Len()
	}
	serve(false) // fill the response cache: both timings then differ by the gzip pass alone
	plain := timeLoop(layerSpan, 3, func() { sink = serve(false) })
	zipped := timeLoop(layerSpan, 3, func() { sink = serve(true) })
	r.set("api.gzip_delta_us", us(zipped-plain), "us")
	return nil
}
