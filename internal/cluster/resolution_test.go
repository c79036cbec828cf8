package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwatrace/internal/api"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// tierCapture synthesizes days whole days of traffic, returned as one
// batch per day so shards can checkpoint at day boundaries and fold day
// tier frames exactly like a long-running capture. Each (day, client)
// pair owns its own /24, so sketch ground truths have closed forms.
func tierCapture(days int) [][]netflow.Record {
	out := make([][]netflow.Record, days)
	for d := 0; d < days; d++ {
		for hh := 0; hh < 3; hh++ {
			at := entime.StudyStart.Add(time.Duration(d*24+hh*8) * time.Hour)
			for c := 0; c < 6; c++ {
				id := d*6 + c
				client := netip.AddrFrom4([4]byte{10, byte(1 + id>>8), byte(id), byte(1 + c)})
				out[d] = append(out[d], keptRecord(at, client, uint64(250+id%40)))
			}
		}
	}
	return out
}

// newTierNode opens a tier-folding store, plays the per-day batches
// with one checkpoint per day, and serves it. The subset function
// filters the capture to the records this shard owns.
func newTierNode(t *testing.T, days int, byDay [][]netflow.Record, owns func(*netflow.Record) bool) *node {
	t.Helper()
	return newTierNodeWith(t, streaming.Config{WindowHours: days*24 + 48, TopK: 10}, byDay, owns)
}

// newTierNodeWith is newTierNode under a caller-chosen analytics
// configuration (a geo database, for answers that carry districts).
func newTierNodeWith(t testing.TB, acfg streaming.Config, byDay [][]netflow.Record, owns func(*netflow.Record) bool) *node {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{
		Analytics: acfg,
		Sync:      store.SyncNever,
		Tier:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, batch := range byDay {
		var mine []netflow.Record
		for i := range batch {
			if owns(&batch[i]) {
				mine = append(mine, batch[i])
			}
		}
		if len(mine) > 0 {
			if err := st.Append(mine); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &node{st: st, srv: srv, ts: ts}
}

// tierRouter fronts the nodes with a fleet router.
func tierRouter(t *testing.T, nodes []*node) *httptest.Server {
	t.Helper()
	return newRouter(t, nodes, 10)
}

// longHorizonOf fetches a resolution query from base and returns the
// response plus the long-horizon block as a comparable map with the
// tier_frames/raw_frames source counts stripped — those legitimately
// differ across shardings (every shard contributes its own residual
// frames); every aggregate must not.
func longHorizonOf(t *testing.T, base, params string) (*v1.QueryResponse, map[string]any) {
	t.Helper()
	status, _, body := get(t, base+"/api/v1/query?"+params, nil)
	if status != http.StatusOK {
		t.Fatalf("query %s: %d %s", params, status, body)
	}
	var resp v1.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.LongHorizon == nil {
		t.Fatalf("query %s carried no long-horizon block", params)
	}
	raw, err := json.Marshal(resp.LongHorizon)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "tier_frames")
	delete(m, "raw_frames")
	return &resp, m
}

// TestClusterLongHorizonMerge pins the fan-out contract of the tiered
// path: a router fronting N shards answers a day-resolution query with
// the same long-horizon aggregates as one collector holding the union —
// for every N. Sketch merging is associative and order-invariant, so
// sharding must not move the distinct-prefix estimate or the presence
// quantiles by even one count.
func TestClusterLongHorizonMerge(t *testing.T) {
	const days = 12
	byDay := tierCapture(days)

	var reference map[string]any
	for _, shards := range []int{1, 2, 4} {
		nodes := make([]*node, shards)
		for i := 0; i < shards; i++ {
			i := i
			nodes[i] = newTierNode(t, days, byDay, func(r *netflow.Record) bool {
				return Owner(r, nil, shards) == i
			})
		}
		router := tierRouter(t, nodes)
		resp, got := longHorizonOf(t, router.URL, "resolution=day")
		if resp.Resolution != "day" || !resp.LongHorizon.Approximate {
			t.Fatalf("%d shards: resolution %q approximate=%v", shards, resp.Resolution, resp.LongHorizon.Approximate)
		}
		if shards == 1 {
			reference = got
			// The single-shard merged answer must carry real aggregates.
			if resp.LongHorizon.DistinctPrefixes == 0 || len(resp.LongHorizon.Buckets) == 0 {
				t.Fatalf("reference answer is empty: %+v", resp.LongHorizon)
			}
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			gb, _ := json.Marshal(got)
			rb, _ := json.Marshal(reference)
			t.Fatalf("%d-shard merge diverges from single node:\n got %.500s\nwant %.500s", shards, gb, rb)
		}
	}
}

// TestClusterLongHorizonLabelsFullyTiered pins the district labels of a
// routed long-horizon answer that is served entirely from tier frames.
// Such a shard answer has an empty raw residual, so its snapshot lists
// no districts at all and the long-horizon block is the only place the
// labels appear at all. Shard state carries district ids only; the
// router labels the merged block from the same geo model the shards
// render with. Routed over 1, 2 and 4 shards the block equals the single
// node's, name and state included.
func TestClusterLongHorizonLabelsFullyTiered(t *testing.T) {
	const days = 12
	model := geo.Germany()
	db, prefixes := testGeoDB(t, model)
	acfg := streaming.Config{WindowHours: days*24 + 48, TopK: 10, DB: db, Model: model}
	byDay := make([][]netflow.Record, days)
	for d := range byDay {
		for hh := 0; hh < 3; hh++ {
			at := entime.StudyStart.Add(time.Duration(d*24+hh*8) * time.Hour)
			for c := 0; c < 8; c++ {
				a4 := prefixes[(d*31+c*47)%len(prefixes)].Addr().As4()
				a4[3] = byte(1 + c)
				byDay[d] = append(byDay[d], keptRecord(at, netip.AddrFrom4(a4), uint64(250+d+c)))
			}
		}
	}
	// Days 2..7 closed long ago: covered by day frames, no raw residual.
	params := fmt.Sprintf("resolution=day&from=%d&to=%d",
		entime.StudyStart.Add(2*24*time.Hour).Unix(), entime.StudyStart.Add(8*24*time.Hour).Unix())

	all := func(*netflow.Record) bool { return true }
	single := newTierNodeWith(t, acfg, byDay, all)
	resp, reference := longHorizonOf(t, single.ts.URL, params)
	lh := resp.LongHorizon
	if lh.RawFrames != 0 || lh.TierFrames == 0 || len(resp.Snapshot.Districts) != 0 {
		t.Fatalf("not a fully tiered answer: %d tier + %d raw frames, %d snapshot districts",
			lh.TierFrames, lh.RawFrames, len(resp.Snapshot.Districts))
	}
	if len(lh.Districts) == 0 {
		t.Fatal("reference answer located no district")
	}
	for _, dc := range lh.Districts {
		if dc.Name == "" || dc.StateCode == "" {
			t.Fatalf("single node rendered district %s without labels", dc.ID)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		nodes := make([]*node, shards)
		for i := range nodes {
			i := i
			nodes[i] = newTierNodeWith(t, acfg, byDay, func(r *netflow.Record) bool {
				return Owner(r, db, shards) == i
			})
		}
		_, got := longHorizonOf(t, newRouter(t, nodes, acfg.TopK).URL, params)
		if !reflect.DeepEqual(got, reference) {
			gb, _ := json.Marshal(got["districts"])
			rb, _ := json.Marshal(reference["districts"])
			t.Fatalf("%d shards: routed fully tiered answer diverges from the single node:\n got %.400s\nwant %.400s", shards, gb, rb)
		}
	}
}

// TestClusterLongHorizonResidualSeries pins the exact half of a routed
// day/week answer: the snapshot is the merged raw residual, and its
// hourly series starts at the residual's first populated hour under the
// same rule the store applies — so the routed snapshot is the single
// node's, byte for byte, at 1, 2 and 4 shards, instead of a span of zero
// rows for hours the buckets account for.
func TestClusterLongHorizonResidualSeries(t *testing.T) {
	const days = 12
	byDay := tierCapture(days)
	snapshotOf := func(base, params string) (*v1.QueryResponse, []byte) {
		resp, _ := longHorizonOf(t, base, params)
		raw, err := json.Marshal(resp.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	const first = (days - 1) * 24 // the last day is the unfolded raw residual
	queries := []string{
		"resolution=day",
		"resolution=week",
		fmt.Sprintf("resolution=day&from=%d&to=%d",
			entime.StudyStart.Add(3*24*time.Hour).Unix(), entime.StudyStart.Add((first+10)*time.Hour).Unix()),
	}
	single := newTierNode(t, days, byDay, func(*netflow.Record) bool { return true })
	for _, params := range queries {
		resp, reference := snapshotOf(single.ts.URL, params)
		if hours := resp.Snapshot.Hours; len(hours) == 0 || hours[0].Hour != first || hours[0].Flows == 0 || resp.Snapshot.SeriesStart != first {
			t.Fatalf("%s: single-node residual series starts at %d with %d rows, want the first populated hour %d",
				params, resp.Snapshot.SeriesStart, len(hours), first)
		}
		for _, shards := range []int{1, 2, 4} {
			nodes := make([]*node, shards)
			for i := range nodes {
				i := i
				nodes[i] = newTierNode(t, days, byDay, func(r *netflow.Record) bool {
					return Owner(r, nil, shards) == i
				})
			}
			if _, got := snapshotOf(tierRouter(t, nodes).URL, params); !bytes.Equal(got, reference) {
				t.Fatalf("%s over %d shards: routed residual snapshot diverges from the single node:\n got %.400s\nwant %.400s",
					params, shards, got, reference)
			}
		}
	}
}

// TestClusterMixedResolutionRejected pins the failure mode auto
// resolution can hit on a heterogeneous fleet: shards whose history
// spans resolve to different effective resolutions must produce an
// explicit fan-out error — never a silent sum of day buckets into week
// buckets.
func TestClusterMixedResolutionRejected(t *testing.T) {
	// Shard 0 holds 5 days (auto resolves to the exact hourly path),
	// shard 1 holds 12 (auto resolves to day).
	shortDays := tierCapture(5)
	longDays := tierCapture(12)
	all := func(*netflow.Record) bool { return true }
	nodes := []*node{
		newTierNode(t, 5, shortDays, all),
		newTierNode(t, 12, longDays, all),
	}
	router := tierRouter(t, nodes)

	status, _, body := get(t, router.URL+"/api/v1/query?resolution=auto", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("mixed auto resolutions: %d %s", status, body)
	}
	var env v1.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("mixed-resolution failure is not an error envelope: %s", body)
	}
	if !strings.Contains(env.Error.Detail, "resolution") {
		t.Fatalf("error does not name the resolution disagreement: %+v", env.Error)
	}

	// An explicit resolution removes the ambiguity and the same fleet
	// answers.
	status, _, body = get(t, router.URL+"/api/v1/query?resolution=day", nil)
	if status != http.StatusOK {
		t.Fatalf("explicit day resolution on the same fleet: %d %s", status, body)
	}
}
