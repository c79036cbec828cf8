// Command bench is the one harness for the configuration an operator
// ships: NFv9 over UDP into a durable collectord, queried through
// queryrouterd. It builds the two daemons from the checkout, drives
// them over loopback with inputs derived from -seed, checks every
// answer against an in-process reference, and prints the metrics
// BENCHMARK.json declares. See README.md for the glossary.
//
//	go run -C bench . --workload ingest_only --seed 1 --seconds 10 --trace 0
//	go run -C bench . --workload all --seconds 30 -out runs.jsonl
//	go run -C bench . compare before.jsonl after.jsonl
//	go run -C bench . record runs.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	quick    bool // reduced inputs, for the harness's own smoke test
}

// spec is BENCHMARK.json, the contract this program prints to.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "record":
			return recordMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload to run: ingest_only, ingest_fsync_always, query_only, mixed_steady or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input derives from")
	fs.IntVar(&opt.seconds, "seconds", 30, "measured seconds per workload (after the warm-up)")
	fs.IntVar(&trace, "trace", 0, "1 = also run the traced in-process replica and the direct layer timings, and print the per-layer metrics")
	fs.StringVar(&opt.out, "out", "", "append each run as one JSON line to this file (input of compare and record)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opt.seconds < 1 || opt.seconds > 60 {
		return fmt.Errorf("-seconds %d: want 1 to 60", opt.seconds)
	}
	opt.trace = trace != 0
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		o := opt
		o.workload = name
		res, err := runWorkload(o, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := emit(sp, res, o); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: correctness checks failed", name)
		}
	}
	return nil
}

// emit prints the human-readable report, appends the run to -out, and
// prints the contract line last: exactly the declared end-to-end
// metrics without -trace, exactly the per-layer ones with it.
func emit(sp *spec, res *result, opt options) error {
	fmt.Printf("== %s seed=%d seconds=%d trace=%v wall=%.1fs\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.WallS)
	for _, n := range res.Notes {
		fmt.Println("  #", n)
	}
	for _, p := range res.Problems {
		fmt.Println("  ! FAILED:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if opt.out != "" {
		if err := appendJSONLine(opt.out, res); err != nil {
			return err
		}
	}
	declared := sp.EndToEnd
	if res.Trace {
		declared = sp.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metric, len(declared))}
	var missing []string
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s is measured in %q but BENCHMARK.json declares %q", d.Name, m.Unit, d.Unit)
		}
		line.Metrics[d.Name] = m
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s did not produce the declared metrics %v", res.Workload, missing)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	return errors.Join(werr, f.Close())
}
