// Command cwanalyze runs the paper's measurement pipeline over a captured
// trace: the data-set filter census (T1), the Figure-2 hourly series, the
// Figure-3 district aggregation, the prefix-persistence statistics (T2)
// and the outbreak analysis (T4).
//
// Usage:
//
//	cwanalyze -trace trace.cwaflow -geodb geodb.jsonl [-fig2] [-fig3]
//	          [-persistence] [-outbreaks] [-census]
//
//	cwanalyze -data-dir DIR [-from T] [-to T] [-resolution R]
//
//	cwanalyze -addr HOST:PORT [-from T] [-to T] [-resolution R]
//
// Without selection flags every analysis runs.
//
// With -data-dir the input is a collectord durable store instead of a
// trace file: the tool opens the store read-only, merges the checkpoint
// frames (plus any WAL tail the collector had not folded yet) covering
// [-from, -to) — RFC 3339 timestamps or unix seconds, both optional —
// and renders the historical range: census, hourly series, spikes, top
// prefixes and district rollups (plus the Figure-2 table whenever the
// range covers the full study window).
//
// With -addr the same historical range comes from a live collectord
// over its versioned API (/api/v1/query, via the typed internal/api
// client with retries and ETag-aware caching) — no filesystem access,
// same output as a local -data-dir read of the same store.
//
// -resolution picks the answer resolution on both historical paths:
// hour (the exact default), day or week (downsampled tier frames plus
// the exact raw residual, with sketch-estimated distinct-prefix and
// presence figures), or auto (pick by span). Day/week answers print the
// long-horizon summary instead of the hourly tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"cwatrace/internal/adoption"
	"cwatrace/internal/api/client"
	"cwatrace/internal/core"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
	"cwatrace/internal/trace"
)

func main() {
	var (
		tracePath   = flag.String("trace", "trace.cwaflow", "binary trace input")
		geoPath     = flag.String("geodb", "geodb.jsonl", "geolocation sidecar input")
		fig2        = flag.Bool("fig2", false, "hourly traffic series (Figure 2)")
		fig3        = flag.Bool("fig3", false, "district heatmap (Figure 3)")
		persistence = flag.Bool("persistence", false, "prefix persistence (T2)")
		outbreaks   = flag.Bool("outbreaks", false, "outbreak analysis (T4)")
		census      = flag.Bool("census", false, "filter census (T1)")
		scale       = flag.Int("scale", 2000, "population scale of the trace, for scaled counts")

		dataDir = flag.String("data-dir", "", "collectord durable store directory (replaces -trace)")
		addr    = flag.String("addr", "", "live collectord API address, e.g. 127.0.0.1:8055 (replaces -trace/-data-dir)")
		fromArg = flag.String("from", "", "historical range start (RFC 3339, e.g. 2020-06-16T00:00:00Z, or unix seconds, e.g. 1592265600; empty = store origin)")
		toArg   = flag.String("to", "", "historical range end, exclusive (RFC 3339 or unix seconds; empty = end of history)")
		resArg  = flag.String("resolution", "", "answer resolution: hour (exact, default), day, week or auto")
	)
	flag.Parse()
	all := !*fig2 && !*fig3 && !*persistence && !*outbreaks && !*census

	resolution, err := tier.ParseResolution(*resArg)
	if err != nil {
		fatal("-resolution: %v", err)
	}
	if *addr != "" {
		if err := analyzeRemote(*addr, *fromArg, *toArg, *resArg, *scale); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *dataDir != "" {
		if err := analyzeStore(*dataDir, *geoPath, *fromArg, *toArg, resolution, *scale); err != nil {
			fatal("%v", err)
		}
		return
	}

	tf, err := os.Open(*tracePath)
	if err != nil {
		fatal("opening trace: %v", err)
	}
	defer tf.Close()
	records, err := trace.ReadAll(tf)
	if err != nil {
		fatal("reading trace: %v", err)
	}

	gf, err := os.Open(*geoPath)
	if err != nil {
		fatal("opening geodb sidecar: %v", err)
	}
	defer gf.Close()
	db, err := geodb.Read(gf)
	if err != nil {
		fatal("reading geodb sidecar: %v", err)
	}

	model := geo.Germany()
	kept, cen := core.ApplyFilter(records, core.DefaultFilter())

	if all || *census {
		fmt.Println(core.RenderCensus(cen, *scale))
	}
	if all || *fig2 {
		res, err := core.Figure2(kept, adoption.DefaultCurve())
		if err != nil {
			fatal("figure 2: %v", err)
		}
		fmt.Println(core.RenderFigure2(res))
		fmt.Println(core.RenderFigure2Daily(core.DailyFlows(kept)))
	}
	if all || *fig3 {
		from, to := core.StudyWindow()
		res := core.Figure3(kept, db, model, from, to)
		fmt.Println(core.RenderFigure3(res))

		d1from, d1to := core.FirstDayWindow()
		day1 := core.Figure3(kept, db, model, d1from, d1to)
		if r, err := core.SpreadSimilarity(day1, res); err == nil {
			fmt.Printf("day-one vs 10-day spread correlation: %.3f (paper: almost the same)\n\n", r)
		}
	}
	if all || *persistence {
		fmt.Println(core.RenderPersistence(core.PrefixPersistence(kept)))
	}
	if all || *outbreaks {
		fmt.Println(core.RenderOutbreaks(core.AnalyzeOutbreaks(kept, db, model)))
	}
}

// analyzeStore serves the historical range straight from a collectord
// data dir: no trace replay, just checkpoint-frame merging.
func analyzeStore(dir, geoPath, fromArg, toArg string, resolution tier.Resolution, scale int) error {
	from, err := store.ParseTime(fromArg)
	if err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	to, err := store.ParseTime(toArg)
	if err != nil {
		return fmt.Errorf("-to: %w", err)
	}

	// The geodb sidecar is optional here: district counts live inside the
	// checkpoint frames, the sidecar only adds names for NEW records, and
	// a read-only open ingests none. The model still resolves names.
	opts := store.Options{ReadOnly: true}
	opts.Analytics.Model = geo.Germany()
	if f, err := os.Open(geoPath); err == nil {
		db, rerr := geodb.Read(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("reading geodb sidecar: %w", rerr)
		}
		opts.Analytics.DB = db
	}

	st, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	m := st.Metrics()
	fmt.Printf("store %s: %d checkpoint frames (%d records), %d un-checkpointed WAL records\n",
		dir, m.Frames, m.FrameRecords, m.RecoveredWALRecords)

	res, err := st.QueryResolution(from, to, resolution)
	if err != nil {
		return err
	}
	fmt.Printf("range [%s, %s): merged %d frames (tail included: %v)\n\n",
		timeBound(from, "origin"), timeBound(to, "end"), res.Frames, res.TailIncluded)
	if res.LongHorizon != nil {
		renderLongHorizon(res.LongHorizon, scale)
		return nil
	}
	renderRange(res.Snapshot(), scale)
	return nil
}

// analyzeRemote serves the same historical range from a live collectord
// over /api/v1/query: identical rendering, no filesystem access.
func analyzeRemote(addr, fromArg, toArg, resolution string, scale int) error {
	c, err := client.New(addr, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	res, err := c.QueryBounds(ctx, fromArg, toArg, &client.ReqOpts{Resolution: resolution})
	if err != nil {
		return err
	}
	if st, err := c.Stats(ctx); err == nil && st.Store != nil {
		fmt.Printf("collectord %s: %d checkpoint frames (%d records), %d un-checkpointed records\n",
			addr, st.Store.Frames, st.Store.FrameRecords, st.Store.TailRecords)
	}
	fmt.Printf("range [%s, %s): merged %d frames (tail included: %v)\n\n",
		timeBound(res.From, "origin"), timeBound(res.To, "end"), res.Frames, res.TailIncluded)
	if res.LongHorizon != nil {
		renderLongHorizon(res.LongHorizon, scale)
		return nil
	}
	renderRange(res.Snapshot.Streaming(), scale)
	return nil
}

// renderLongHorizon prints a day/week-resolution answer: the exact
// downsampled series and census, then the sketched estimates with their
// honest approximate label — shared by the local and remote paths.
func renderLongHorizon(ans *tier.Answer, scale int) {
	fmt.Println(core.RenderCensus(ans.Census, scale))
	fmt.Printf("%s series: %d buckets (%dh each)", ans.Resolution, len(ans.Buckets), ans.BucketHours)
	if len(ans.Buckets) > 0 {
		fmt.Printf(" [%s .. %s]", ans.Buckets[0].Time.Format(time.RFC3339),
			ans.Buckets[len(ans.Buckets)-1].Time.Format(time.RFC3339))
	}
	var flows, bytes float64
	for _, b := range ans.Buckets {
		flows += b.Flows
		bytes += b.Bytes
	}
	fmt.Printf(", %.0f flows, %.0f bytes\n", flows, bytes)
	fmt.Printf("sources: %d tier frames + %d raw residual frames\n", ans.TierFrames, ans.RawFrames)
	fmt.Printf("distinct client prefixes: ~%d (HLL estimate)\n", ans.DistinctPrefixes)
	p := ans.Presence
	fmt.Printf("prefix presence (per-frame observations): n=%d p50=%d p90=%d p99=%d max=%d\n",
		p.Count, p.P50, p.P90, p.P99, p.Max)
	if len(ans.Districts) > 0 {
		fmt.Printf("districts active: %d (located %d flows)\n", len(ans.Districts), ans.Located)
	}
}

// renderRange prints a historical range snapshot — shared verbatim by
// the local (-data-dir) and remote (-addr) paths, so both produce the
// same tables for the same data.
func renderRange(snap *streaming.Snapshot, scale int) {
	fmt.Println(core.RenderCensus(snap.Census, scale))

	// When the range covers the full study window the exact Figure-2
	// table is derivable; partial ranges fall back to the summary line.
	if fig2, err := snap.Figure2(adoption.DefaultCurve()); err == nil {
		fmt.Println(core.RenderFigure2(fig2))
	}

	var flows, bytes float64
	for _, p := range snap.Hours {
		flows += p.Flows
		bytes += p.Bytes
	}
	fmt.Printf("hourly series: %d hours", len(snap.Hours))
	if len(snap.Hours) > 0 {
		fmt.Printf(" [%s .. %s]", snap.Hours[0].Time.Format(time.RFC3339),
			snap.Hours[len(snap.Hours)-1].Time.Format(time.RFC3339))
	}
	fmt.Printf(", %.0f flows, %.0f bytes\n", flows, bytes)
	for i, sp := range snap.Spikes {
		if i >= 5 {
			fmt.Printf("spikes: ... %d more\n", len(snap.Spikes)-5)
			break
		}
		fmt.Printf("spike: %s flows=%.0f (%.1fx over trailing mean)\n",
			sp.Time.Format("Jan 02 15:04"), sp.Flows, sp.Ratio)
	}
	for i, pc := range snap.TopPrefixes {
		fmt.Printf("top prefix %d: %s (%d flows)\n", i+1, pc.Prefix, pc.Flows)
	}
	if len(snap.Districts) > 0 {
		fmt.Printf("districts active: %d (located %d flows)\n", len(snap.Districts), snap.Located)
	}
}

func timeBound(t time.Time, open string) string {
	if t.IsZero() {
		return open
	}
	return t.Format(time.RFC3339)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwanalyze: "+format+"\n", args...)
	os.Exit(1)
}
