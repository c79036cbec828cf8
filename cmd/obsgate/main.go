// Command obsgate is the proof that the telemetry layer is effectively
// free. BenchmarkIngestPipeline runs each ingest mode twice — once with
// obs.Disabled (a nil registry, every instrument a no-op) and once with
// the full observability stack: a live registry (sampled stage
// histograms, per-lane gauges, watermark tracking) plus the flight
// recorder's span tracer and event ring — and this command pairs them up,
// writes the comparison as JSON (BENCH_obs.json, so CI can archive it) and
// reports the throughput delta as overhead_pct. The gate (default 3%)
// fails the run when the instrumented pipeline falls more than that
// behind the baseline, so the <3% contract covers span tracing too.
//
// It is the one measurement the bench/ harness does not take; every other
// number lives there (see bench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	count := flag.Int("count", 5, "rounds per ingest mode and variant (at least 5: the medians decide)")
	out := flag.String("o", "BENCH_obs.json", "output file")
	maxOverhead := flag.Float64("max-overhead-pct", 3, "fail when instrumentation overhead exceeds this percentage (0 disables the gate)")
	flag.Parse()
	if err := runObs(*out, *count, *maxOverhead); err != nil {
		fmt.Fprintf(os.Stderr, "obsgate: %v\n", err)
		os.Exit(1)
	}
}

// result is one parsed benchmark line.
type result struct {
	Name          string  `json:"name"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	// RecordsPerOp and AllocsPerRecord are derived from records/s and
	// ns/op; zero when the benchmark does not report records/s.
	RecordsPerOp    float64 `json:"records_per_op,omitempty"`
	AllocsPerRecord float64 `json:"allocs_per_record,omitempty"`
}

// obsPair is one ingest mode's baseline/instrumented comparison.
type obsPair struct {
	Mode         string `json:"mode"`
	Baseline     result `json:"baseline"`
	Instrumented result `json:"instrumented"`
	// OverheadPct is the throughput cost of instrumentation in percent:
	// (baseline - instrumented) / baseline * 100 over records/s.
	// Negative values are run-to-run noise in the instrumented run's
	// favor.
	OverheadPct float64 `json:"overhead_pct"`
}

// obsReport is the BENCH_obs.json schema.
type obsReport struct {
	GeneratedAt    string    `json:"generated_at"`
	GoVersion      string    `json:"go_version"`
	GOOS           string    `json:"goos"`
	GOARCH         string    `json:"goarch"`
	NumCPU         int       `json:"num_cpu"`
	Count          int       `json:"count"`
	MaxOverheadPct float64   `json:"max_overhead_pct"`
	Pairs          []obsPair `json:"pairs"`
}

// runObs benchmarks the instrumented ingest modes against their
// disabled baselines and writes the comparison to out.
//
// Each (mode, variant) runs as its own short go-test invocation, the
// baseline/instrumented order alternates between rounds, and the
// per-variant MEDIAN records/s decides the comparison. All three choices
// fight the same enemy: on a busy or thermally drifting machine, run
// order and outlier runs systematically masquerade as instrumentation
// overhead (both signs were observed during development). Alternation
// cancels ordering bias, medians drop the outliers.
func runObs(out string, count int, maxOverheadPct float64) error {
	if count < 5 {
		count = 5 // medians need repetitions; one or two runs is all noise
	}
	samples := make(map[string][]result)
	runOne := func(name string) error {
		cmd := exec.Command("go", "test", "-run", "XXX",
			"-bench", "^BenchmarkIngestPipeline$/^"+name+"$", "-benchmem",
			"-benchtime", "0.5s", "./internal/ingest/")
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%v\n%s", err, buf.Bytes())
		}
		os.Stdout.Write(buf.Bytes())
		for _, r := range parseBench(buf.String()) {
			samples[r.Name] = append(samples[r.Name], r)
		}
		return nil
	}
	for round := 0; round < count; round++ {
		for _, mode := range []string{"serial", "parallel"} {
			pair := []string{mode, mode + "_instrumented"}
			if round%2 == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			for _, name := range pair {
				if err := runOne(name); err != nil {
					return err
				}
			}
		}
	}

	// Median per benchmark name.
	best := make(map[string]result)
	for name, rs := range samples {
		sort.Slice(rs, func(i, j int) bool { return rs[i].RecordsPerSec < rs[j].RecordsPerSec })
		best[name] = rs[len(rs)/2]
	}

	rep := obsReport{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		Count:          count,
		MaxOverheadPct: maxOverheadPct,
	}
	const prefix = "BenchmarkIngestPipeline/"
	for _, mode := range []string{"serial", "parallel"} {
		base, ok := best[prefix+mode]
		if !ok || base.RecordsPerSec == 0 {
			return fmt.Errorf("no baseline result for mode %q", mode)
		}
		instr, ok := best[prefix+mode+"_instrumented"]
		if !ok || instr.RecordsPerSec == 0 {
			return fmt.Errorf("no instrumented result for mode %q", mode)
		}
		rep.Pairs = append(rep.Pairs, obsPair{
			Mode:         mode,
			Baseline:     base,
			Instrumented: instr,
			OverheadPct:  (base.RecordsPerSec - instr.RecordsPerSec) / base.RecordsPerSec * 100,
		})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, p := range rep.Pairs {
		fmt.Fprintf(os.Stderr, "obsgate: %s overhead %.2f%% (%.0f -> %.0f records/s)\n",
			p.Mode, p.OverheadPct, p.Baseline.RecordsPerSec, p.Instrumented.RecordsPerSec)
	}
	fmt.Fprintf(os.Stderr, "obsgate: wrote %s (%d pairs)\n", out, len(rep.Pairs))
	if maxOverheadPct > 0 {
		for _, p := range rep.Pairs {
			if p.OverheadPct > maxOverheadPct {
				return fmt.Errorf("mode %s: instrumentation overhead %.2f%% exceeds the %.0f%% budget",
					p.Mode, p.OverheadPct, maxOverheadPct)
			}
		}
	}
	return nil
}

// parseBench extracts benchmark lines from `go test -bench` output. Each
// line is "BenchmarkName-P  iterations  value unit  value unit ...";
// units tag the values, so column order does not matter.
func parseBench(out string) []result {
	var results []result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Name: trimProcs(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "records/s":
				r.RecordsPerSec = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if r.RecordsPerSec > 0 && r.NsPerOp > 0 {
			r.RecordsPerOp = r.RecordsPerSec * r.NsPerOp / 1e9
			r.AllocsPerRecord = r.AllocsPerOp / r.RecordsPerOp
		}
		results = append(results, r)
	}
	return results
}

// trimProcs drops the trailing GOMAXPROCS suffix ("-8") the bench runner
// appends, keeping names stable across machines.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
