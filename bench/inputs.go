package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"cwatrace/internal/cluster"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/sim"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// The analytics configuration every store, daemon and reference in the
// harness shares. store.Open rejects a data dir whose stored window
// differs from the flags, so fixtures are built with exactly what
// daemonFlags passes to collectord.
const (
	// ingestWindowHours covers what a 30 s run appends to an empty dir:
	// at ≈1.5M records/s the replay advances ≈530 simulated hours per
	// second. A longer run slides the window, and the reference slides
	// with it.
	ingestWindowHours = 2 * 366 * 24
	// historyWindowHours holds the 364-day fixture plus what a 60 s
	// mixed_steady run appends behind it (≈37 simulated hours per second
	// at 100k records/s) with nothing evicted. Every query pays for the
	// window it allocates, so it is sized to the history, not beyond.
	historyWindowHours = 500 * 24
	topK               = 10
	// passHours is how far one replay of the trace advances simulated
	// time: the study window, so every pass lands on fresh hours.
	passHours = 264

	maxPerPacket  = 30 // records per datagram, the nfv9.Exporter limit
	studyDays     = passHours / 24
	dayDuration   = 24 * time.Hour
	passDuration  = passHours * time.Hour
	fixtureShards = 2
)

// sizes are the input dimensions. The benchmark always runs fullSizes;
// the harness's own smoke test runs quickSizes, which exercise the same
// code on inputs that build in a second.
type sizes struct {
	traceScale   int // ingest trace: sim scale 300 gives ≈724k records, ≈2k client /24s
	fixtureScale int // fixture trace: sim scale 3000 gives ≈72k records per 11-day pass
	days         int // fixture length; also the longest query span
	layerSpan    time.Duration
}

var (
	fullSizes  = sizes{traceScale: 300, fixtureScale: 3000, days: 364, layerSpan: 120 * time.Millisecond}
	quickSizes = sizes{traceScale: 3000, fixtureScale: 10000, days: 35, layerSpan: 10 * time.Millisecond}
)

// inputs are everything a workload consumes, all derived from the seed.
type inputs struct {
	sizes
	// geoPath is the geodb sidecar the daemons load with -geodb; acfg.DB
	// is read back from it so references see what the daemons see.
	geoPath string
	acfg    streaming.Config

	// trace is the ingest trace in time order; kept marks the records
	// the paper's filter keeps (only those show up as hourly flows).
	trace []netflow.Record
	kept  []bool

	// fixtureEnd is the first instant after the fixture's last day;
	// mixed_steady ingests from there on.
	fixtureEnd time.Time
	// distinctKept is the exact distinct-/24 count of the fixture's kept
	// records: the ground truth for the day-resolution HLL estimate.
	distinctKept int
}

func simSeed(seed int64) int64 { return 20200616 + 1000003*seed }

func runSim(seed int64, scale int) (*sim.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = simSeed(seed)
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim at scale %d: %w", scale, err)
	}
	return res, nil
}

// writeGeoDB writes the sidecar and reads it back, the way collectord
// -geodb does, so in-process references classify exactly like the
// daemons.
func writeGeoDB(db *geodb.DB, path string) (*geodb.DB, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := db.Write(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing geodb sidecar: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	back, err := geodb.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading geodb sidecar back: %w", err)
	}
	return back, nil
}

// newInputs simulates the ingest trace (when wantTrace) and prepares the
// shared analytics configuration. One geodb serves the whole run — the
// trace's when there is one, else the fixture's — because fixtures, the
// daemons and the references must all locate clients identically.
func newInputs(sz sizes, seed int64, dir string, wantTrace bool, fixtureRes *sim.Result) (*inputs, error) {
	window := ingestWindowHours
	if fixtureRes != nil {
		window = historyWindowHours
	}
	in := &inputs{sizes: sz, geoPath: filepath.Join(dir, "geodb.jsonl")}
	var db *geodb.DB
	if wantTrace {
		res, err := runSim(seed, sz.traceScale)
		if err != nil {
			return nil, err
		}
		in.trace = res.Records
		cf := core.DefaultFilter().Compile()
		in.kept = make([]bool, len(in.trace))
		for i := range in.trace {
			in.kept[i] = cf.Classify(&in.trace[i]) == core.Kept
		}
		db = res.GeoDB
	}
	if db == nil && fixtureRes != nil {
		db = fixtureRes.GeoDB
	}
	if db == nil {
		return nil, fmt.Errorf("inputs: neither a trace nor a fixture requested")
	}
	back, err := writeGeoDB(db, in.geoPath)
	if err != nil {
		return nil, err
	}
	in.acfg = streaming.Config{WindowHours: window, TopK: topK, DB: back, Model: geo.Germany()}
	in.fixtureEnd = entime.StudyStart.Add(time.Duration(sz.days) * dayDuration)
	return in, nil
}

// shifted returns r moved forward by d.
func shifted(r netflow.Record, d time.Duration) netflow.Record {
	r.First = r.First.Add(d)
	r.Last = r.Last.Add(d)
	return r
}

// splitByDay buckets a study-window trace by simulated day; stragglers
// past the window end ride with the last day.
func splitByDay(recs []netflow.Record) [][]netflow.Record {
	byDay := make([][]netflow.Record, studyDays)
	for _, r := range recs {
		d := int(r.First.Sub(entime.StudyStart) / dayDuration)
		d = max(0, min(d, studyDays-1))
		byDay[d] = append(byDay[d], r)
	}
	return byDay
}

// buildFixture writes a days-long store into dir through the
// store's own API: one Append and one Checkpoint per simulated day, so
// day and week tier frames fold exactly as a year-long capture would.
// keep selects this copy's share (nil keeps everything).
func buildFixture(dir string, acfg streaming.Config, days int, byDay [][]netflow.Record, keep func(*netflow.Record) bool) error {
	st, err := store.Open(dir, store.Options{Analytics: acfg, Sync: store.SyncNever, Tier: true})
	if err != nil {
		return err
	}
	var batch []netflow.Record
	for d := 0; d < days; d++ {
		shift := time.Duration(d/studyDays) * passDuration
		batch = batch[:0]
		for _, r := range byDay[d%studyDays] {
			r = shifted(r, shift)
			if keep == nil || keep(&r) {
				batch = append(batch, r)
			}
		}
		if len(batch) > 0 {
			if err := st.Append(batch); err != nil {
				st.Close()
				return fmt.Errorf("fixture day %d: %w", d, err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			st.Close()
			return fmt.Errorf("fixture day %d checkpoint: %w", d, err)
		}
	}
	return st.Close()
}

// fixtureDirs are the on-disk fixture copies of one run.
type fixtureDirs struct {
	whole  string   // unsharded
	shards []string // split with cluster.Owner
}

// buildFixtures builds the unsharded copy and, when sharded, the split
// copies, concurrently: each is fsync-bound for much of its time.
func buildFixtures(in *inputs, res *sim.Result, root string, sharded bool) (*fixtureDirs, error) {
	byDay := splitByDay(res.Records)
	fx := &fixtureDirs{whole: filepath.Join(root, "fixture-whole")}
	type job struct {
		dir  string
		keep func(*netflow.Record) bool
	}
	jobs := []job{{fx.whole, nil}}
	if sharded {
		for i := 0; i < fixtureShards; i++ {
			dir := filepath.Join(root, fmt.Sprintf("fixture-shard%d", i))
			fx.shards = append(fx.shards, dir)
			jobs = append(jobs, job{dir, func(r *netflow.Record) bool {
				return cluster.Owner(r, in.acfg.DB, fixtureShards) == i
			}})
		}
	}
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		go func() {
			errs <- buildFixture(j.dir, in.acfg, in.days, byDay, j.keep)
		}()
	}
	var first error
	for range jobs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	cf := core.DefaultFilter().Compile()
	prefixes := make(map[netip.Prefix]struct{})
	for i := range res.Records {
		if cf.Classify(&res.Records[i]) != core.Kept {
			continue
		}
		if p, err := res.Records[i].Dst.Prefix(24); err == nil {
			prefixes[p] = struct{}{}
		}
	}
	in.distinctKept = len(prefixes)
	return fx, nil
}
