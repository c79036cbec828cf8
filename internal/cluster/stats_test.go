package cluster

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/ingest"
	"cwatrace/internal/store"
)

// stubHistory is an api.History that only ever reports store gauges.
type stubHistory struct {
	api.History
	metrics store.Metrics
}

func (h stubHistory) Metrics() store.Metrics { return h.metrics }

// fillNumeric gives every field of the struct v points to a distinct
// non-zero value derived from seed: integers seed+index, a time that
// many seconds after the epoch. Any other kind fails the test — a new
// kind of field needs a rule here and in Fleet.Stats.
func fillNumeric(t *testing.T, v any, seed int64) {
	t.Helper()
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		f, n := s.Field(i), seed+int64(i)
		switch {
		case f.CanInt():
			f.SetInt(n)
		case f.CanUint():
			f.SetUint(uint64(n))
		case f.Type() == reflect.TypeOf(time.Time{}):
			f.Set(reflect.ValueOf(time.Unix(n, 0).UTC()))
		default:
			t.Fatalf("%s.%s: no rule for a %s field", s.Type(), s.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestFleetStatsSumsEveryField holds Fleet.Stats, which adds the
// shards' counters field by hand-written field, to the two structs it
// reads: every numeric field of ingest.Stats and store.Metrics that two
// shards report comes back from the router as their sum. A counter added
// to either struct and not to Fleet.Stats fails here instead of reading
// zero on the router's /api/v1/stats. The two fields that are not sums
// are named below.
func TestFleetStatsSumsEveryField(t *testing.T) {
	notSums := map[string]string{
		"Stats.WatermarkUnixNano": "the minimum: the fleet has data up to t only when every shard does",
		"Metrics.LastCheckpoint":  "the newest across the fleet",
	}
	var (
		shardIngest [2]ingest.Stats
		shardStore  [2]store.Metrics
		nodes       []string
	)
	for i := range shardIngest {
		fillNumeric(t, &shardIngest[i], int64(1000*(i+1)))
		fillNumeric(t, &shardStore[i], int64(100_000*(i+1)))
		srv, err := api.New(api.Config{
			Live:    &stubLive{stats: shardIngest[i]},
			History: stubHistory{metrics: shardStore[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		nodes = append(nodes, ts.URL)
	}
	fleet, err := New(nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fleet.Stats(context.Background())
	if err != nil || len(fs.Missing) != 0 || fs.Store == nil {
		t.Fatalf("Stats: %v, missing %v, store %v", err, fs.Missing, fs.Store)
	}

	check := func(routed, shard0, shard1 any) {
		r, a, b := reflect.ValueOf(routed), reflect.ValueOf(shard0), reflect.ValueOf(shard1)
		for i := 0; i < r.NumField(); i++ {
			name := r.Type().Name() + "." + r.Type().Field(i).Name
			if _, ok := notSums[name]; ok {
				delete(notSums, name)
				continue
			}
			var got, want uint64
			if r.Field(i).CanInt() {
				got, want = uint64(r.Field(i).Int()), uint64(a.Field(i).Int()+b.Field(i).Int())
			} else {
				got, want = r.Field(i).Uint(), a.Field(i).Uint()+b.Field(i).Uint()
			}
			if got != want {
				t.Errorf("%s: the router reports %d, its shards %d", name, got, want)
			}
		}
	}
	check(fs.Ingest, shardIngest[0], shardIngest[1])
	check(*fs.Store, shardStore[0], shardStore[1])
	for name := range notSums {
		t.Errorf("%s is listed as an exception and is not a field", name)
	}
	if got, want := fs.Ingest.WatermarkUnixNano, shardIngest[0].WatermarkUnixNano; got != want {
		t.Errorf("Stats.WatermarkUnixNano: %d, want the minimum %d", got, want)
	}
	if got, want := fs.Store.LastCheckpoint, shardStore[1].LastCheckpoint; !got.Equal(want) {
		t.Errorf("Metrics.LastCheckpoint: %s, want the newest %s", got, want)
	}
}
