package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"
)

// loadRuns reads a -out file: one result per line. Traced runs carry
// end-to-end numbers too, but those shared the machine with nothing
// else only in untraced runs, so only those are kept.
func loadRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", path)
	}
	return runs, nil
}

// values collects one metric of one workload across a run set.
func values(runs []result, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares run set b (the change) with a (the parent) on one
// metric. A median worse by more than bound is a regression — unless
// the run-to-run spread itself exceeds the bound, in which case the
// runs cannot resolve the question either way and the row says so,
// except when every run of b reads better than every run of a.
func judge(a, b []float64, higherIsBetter bool, bound float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if higherIsBetter {
			worse = -worse
		}
	}
	spread = max(iqrShare(a), iqrShare(b))
	if spread > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if higherIsBetter {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return verdictOK, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	if worse > bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// failureRatios are gated absolutely: any run set that fails more than
// the parent's worst run regresses, whatever the medians say.
var failureRatios = []string{"loss_ratio", "query_fail_ratio"}

// compareRuns writes one row per workload × end-to-end metric and
// reports whether anything regressed or stayed unresolved.
func compareRuns(w io.Writer, sp *spec, a, b []result) (regressed, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tspread\tbound\truns\tverdict\t")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse, spread := judge(va, vb, m.Better == "higher", m.Bound)
			switch verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\t\n",
				wl.Name, m.Name, m.Unit, median(va), median(vb), 100*worse, 100*spread, 100*m.Bound, len(va), len(vb), verdict)
		}
		for _, name := range failureRatios {
			va, vb := values(a, wl.Name, name), values(b, wl.Name, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := verdictOK
			if slices.Max(vb) > slices.Max(va)+0.001 {
				verdict = verdictRegressed
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\tratio\t%.5g\t%.5g\t\t\t+0.001 abs\t%d/%d\t%s\t\n",
				wl.Name, name, slices.Max(va), slices.Max(vb), len(va), len(vb), verdict)
		}
	}
	tw.Flush()
	return regressed, unresolved
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.jsonl B.jsonl (run sets written with -out; A is the parent)")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	regressed, unresolved := compareRuns(os.Stdout, sp, a, b)
	for _, r := range append(a, b...) {
		if !r.Correct {
			return fmt.Errorf("%s seed %d failed its correctness checks: %v", r.Workload, r.Seed, r.Problems)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed, %d unresolved", regressed, unresolved)
	}
	if unresolved > 0 {
		fmt.Printf("%d unresolved: the run-to-run spread exceeds the bound; lengthen the runs or add more\n", unresolved)
	}
	return nil
}

// trajectoryRow is one line of TRAJECTORY.jsonl: where and when a run
// set was taken, and the median of every end-to-end metric.
type trajectoryRow struct {
	environment
	Date    string                        `json:"date"`
	Seconds int                           `json:"seconds"`
	Runs    map[string]int                `json:"runs"`
	Medians map[string]map[string]float64 `json:"medians"`
}

func recordMain(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: bench record RUNS.jsonl (a run set written with -out)")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	runs, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	env, err := readEnvironment(root, filepath.Join(root, "bench"))
	if err != nil {
		return err
	}
	row := trajectoryRow{
		environment: env,
		Date:        time.Now().UTC().Format(time.RFC3339),
		Seconds:     runs[0].Seconds,
		Runs:        make(map[string]int),
		Medians:     make(map[string]map[string]float64),
	}
	names := make([]string, 0, len(sp.EndToEnd)+len(failureRatios))
	for _, m := range sp.EndToEnd {
		names = append(names, m.Name)
	}
	names = append(names, failureRatios...)
	for _, wl := range sp.Workloads {
		for _, name := range names {
			v := values(runs, wl.Name, name)
			if len(v) == 0 {
				continue
			}
			if row.Medians[wl.Name] == nil {
				row.Medians[wl.Name] = make(map[string]float64)
			}
			row.Medians[wl.Name][name] = median(v)
			row.Runs[wl.Name] = len(v)
		}
	}
	path := filepath.Join(root, "bench", "TRAJECTORY.jsonl")
	if err := appendJSONLine(path, row); err != nil {
		return err
	}
	fmt.Printf("appended %d workloads at commit %s to %s\n", len(row.Medians), env.Commit, path)
	return nil
}
