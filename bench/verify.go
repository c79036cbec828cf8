package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// replayInto feeds the first n records of the generator's sequence —
// the trace in order, each pass shifted one study window further, pass
// 0 shifted by base — into an. The generator is deterministic, so this
// reproduces exactly what it sent without keeping millions of records.
func replayInto(an *streaming.Analytics, in *inputs, base time.Duration, n uint64) {
	batch := make([]netflow.Record, 0, 4096)
	for pass := 0; n > 0; pass++ {
		shift := base + time.Duration(pass)*passDuration
		for i := 0; i < len(in.trace) && n > 0; i++ {
			batch = append(batch, shifted(in.trace[i], shift))
			n--
			if len(batch) == cap(batch) || n == 0 {
				an.Ingest(batch)
				batch = batch[:0]
			}
		}
	}
}

// routedState is what the ingest workloads compare: the full-range
// census and hourly series as served through the router.
type routedState struct {
	Census struct {
		Total int `json:"Total"`
	} `json:"census"`
	Hours []struct {
		Hour  int     `json:"hour"`
		Flows float64 `json:"flows"`
		Bytes float64 `json:"bytes"`
	} `json:"hours"`
	Late uint64 `json:"late"`
}

func fetchRouted(router *daemon) (*routedState, error) {
	status, body, err := httpGet(controlClient, "http://"+router.http+"/api/v1/snapshot?fields=hourly,filters")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("routed snapshot: status %d: %.200s", status, body)
	}
	var rs routedState
	if err := json.Unmarshal(body, &rs); err != nil {
		return nil, fmt.Errorf("routed snapshot: %w", err)
	}
	return &rs, nil
}

// checkIngested compares the routed state after drain and restart with
// the reference built from what was sent. With nothing lost the two
// must be equal; with loss the routed state may only fall short.
// prior is the fixture's contribution (mixed_steady), nil otherwise.
func checkIngested(got *routedState, in *inputs, base time.Duration, sent uint64, prior *streaming.Snapshot) (lost int64, err error) {
	ref := streaming.New(in.acfg)
	replayInto(ref, in, base, sent)
	want := ref.Snapshot()
	wantTotal := want.Census.Total
	wantHours := make(map[int][2]float64, len(want.Hours))
	for _, h := range want.Hours {
		wantHours[h.Hour] = [2]float64{h.Flows, h.Bytes}
	}
	if prior != nil {
		wantTotal += prior.Census.Total
		for _, h := range prior.Hours {
			v := wantHours[h.Hour]
			wantHours[h.Hour] = [2]float64{v[0] + h.Flows, v[1] + h.Bytes}
		}
	}
	lost = int64(wantTotal) - int64(got.Census.Total)
	if lost < 0 {
		return lost, fmt.Errorf("routed census holds %d records, more than the %d sent", got.Census.Total, wantTotal)
	}
	gotHours := make(map[int][2]float64, len(got.Hours))
	for _, h := range got.Hours {
		gotHours[h.Hour] = [2]float64{h.Flows, h.Bytes}
	}
	if lost == 0 {
		if got.Late != want.Late && prior == nil {
			return 0, fmt.Errorf("routed late count %d, reference %d", got.Late, want.Late)
		}
		for h, w := range wantHours {
			if g := gotHours[h]; g != w && (w[0] != 0 || g[0] != 0) {
				return 0, fmt.Errorf("hour %d: routed flows/bytes %v, reference %v", h, g, w)
			}
		}
		for h, g := range gotHours {
			if _, ok := wantHours[h]; !ok && g[0] != 0 {
				return 0, fmt.Errorf("hour %d: routed %v flows the reference never saw", h, g[0])
			}
		}
		return 0, nil
	}
	for h, g := range gotHours {
		if w := wantHours[h]; g[0] > w[0] {
			return lost, fmt.Errorf("hour %d: routed %v flows exceed the %v sent", h, g[0], w[0])
		}
	}
	return lost, nil
}

// ---- query_only: the in-process reference over the unsharded fixture ----

// reference serves the unsharded fixture through the same api.Server
// the daemons mount, in this process.
type reference struct {
	st  *store.Store
	srv *httptest.Server
}

func newReference(in *inputs, dir string) (*reference, error) {
	st, err := store.Open(dir, store.Options{Analytics: in.acfg, ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("opening reference fixture: %w", err)
	}
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &reference{st, httptest.NewServer(srv)}, nil
}

func (r *reference) close() {
	r.srv.Close()
	r.st.Close()
}

// normalizeQuery strips what legitimately differs between one store and
// two shards of it: the three source counts (every shard counts its own
// frames). It also strips the district labels of the long-horizon block
// and reports whether any were blank: at seed the router re-attaches
// names only from the raw residual's districts, so a fully tiered answer
// loses them — a divergence this harness records but cannot fix from
// outside. Every aggregate must survive the comparison.
func normalizeQuery(body []byte) (m map[string]any, blankNames bool, err error) {
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, false, err
	}
	delete(m, "frames")
	if lh, ok := m["long_horizon"].(map[string]any); ok {
		delete(lh, "tier_frames")
		delete(lh, "raw_frames")
		districts, _ := lh["districts"].([]any)
		for _, d := range districts {
			if dm, ok := d.(map[string]any); ok {
				if dm["name"] == "" {
					blankNames = true
				}
				delete(dm, "name")
				delete(dm, "state")
			}
		}
	}
	return m, blankNames, nil
}

// verifySample is how many distinct in-window URLs are re-fetched and
// compared with the reference after the window: the reference runs in
// this process, so checking inside the window would steal the CPU the
// daemons are being measured on.
const verifySample = 96

// checkQueries re-fetches a sample of the URLs the window served, from
// the router (which must repeat the in-window bytes: the store is
// static) and from the reference (which must agree once normalized).
func checkQueries(router string, ref *reference, qs *queryStats) (checked, unnamed int, err error) {
	urls := make([]string, 0, len(qs.sums))
	for u := range qs.sums {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	if len(urls) > verifySample {
		step := float64(len(urls)) / verifySample
		picked := make([]string, 0, verifySample)
		for i := 0; i < verifySample; i++ {
			picked = append(picked, urls[int(float64(i)*step)])
		}
		urls = picked
	}
	for _, u := range urls {
		status, got, err := httpGet(controlClient, router+u)
		if err != nil || status != http.StatusOK {
			return checked, unnamed, fmt.Errorf("re-fetching %s from the router: status %d, err %v", u, status, err)
		}
		if crc32.ChecksumIEEE(got) != qs.sums[u] {
			return checked, unnamed, fmt.Errorf("%s: router body changed between the window and the re-fetch", u)
		}
		status, want, err := httpGet(controlClient, ref.srv.URL+u)
		if err != nil || status != http.StatusOK {
			return checked, unnamed, fmt.Errorf("fetching %s from the reference: status %d, err %v", u, status, err)
		}
		if !bytes.Equal(got, want) {
			g, blank, err1 := normalizeQuery(got)
			w, _, err2 := normalizeQuery(want)
			if err1 != nil || err2 != nil {
				return checked, unnamed, fmt.Errorf("%s: undecodable body (router %v, reference %v)", u, err1, err2)
			}
			if blank {
				unnamed++
			}
			if !reflect.DeepEqual(g, w) {
				return checked, unnamed, fmt.Errorf("%s: router and reference disagree beyond frame counts\n router: %.300s\n   want: %.300s", u, got, want)
			}
		}
		checked++
	}
	return checked, unnamed, nil
}

// distinctErrPct asks the router for the whole fixture at day
// resolution and compares the HLL distinct-/24 estimate with the exact
// count of the fixture's inputs.
func distinctErrPct(router string, in *inputs) (float64, error) {
	status, body, err := httpGet(controlClient, router+rangeQuery(0, in.days, "day"))
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("day-resolution query: status %d, err %v", status, err)
	}
	var resp struct {
		LongHorizon *struct {
			Distinct uint64 `json:"distinct_prefixes"`
		} `json:"long_horizon"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if resp.LongHorizon == nil || in.distinctKept == 0 {
		return 0, fmt.Errorf("day-resolution answer has no long-horizon block (exact count %d)", in.distinctKept)
	}
	return 100 * math.Abs(float64(resp.LongHorizon.Distinct)-float64(in.distinctKept)) / float64(in.distinctKept), nil
}
