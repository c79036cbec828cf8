package streaming

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cwatrace/internal/geo"
)

// TestFoldByIndexAddsLikeAMap is TestFoldByIDAddsLikeAMap for districts:
// the fold by index held to a model that shares none of it, a map from
// district id to summed flows, listed sorted by id and named from the geo
// model. Sources are randomState's plus ids inside the model and outside
// it (digits, which sort before every model id, and lower case, which sort
// after), zero-flow rows half the time, each state in one of the forms a
// fold meets: built by hand and resolved as its rows were added, decoded
// from its canonical bytes (resolved off them), decoded from scrambled
// bytes (its ids outside the model numbered in another order), or detached
// from a live shard that numbered other ids first. The fold must list
// every district a source named, zero flows included, in id order, named
// exactly where the configuration has a model, and encode the state the
// same fold encodes with no district rows but the model's sums.
func TestFoldByIndexAddsLikeAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	germany := geo.Germany()
	origin := Config{}.WithDefaults().Origin
	for round := 0; round < 400; round++ {
		states := make([]*Stored, 1+rng.Intn(6))
		model := map[string]uint64{}
		for i := range states {
			st := randomState(rng, 0)
			for n := rng.Intn(5); n > 0; n-- {
				id := modelDistricts[rng.Intn(len(modelDistricts))].ID
				switch rng.Intn(4) {
				case 0:
					id = fmt.Sprintf("%05d", rng.Intn(6))
				case 1:
					id = fmt.Sprintf("zz-%d", rng.Intn(6))
				}
				st.hasDistricts = true
				st.districts.set(NoDistrict, id, uint64(rng.Intn(2)*rng.Intn(40))) // zero half the time
			}
			st.districts.Each(func(_ uint32, id string, flows uint64) { model[id] += flows })
			switch rng.Intn(4) {
			case 1:
				st = decodeState(t, origin, must(st.AppendBinary(nil, origin)))
			case 2:
				st = decodeState(t, origin, scrambled(st, origin))
			case 3:
				live := New(Config{})
				live.hasDistricts = true
				live.districts.Add(NoDistrict, "zz-other", 0)
				live.MergeStored(st)
				st = live.Detach(time.Time{}, time.Time{})
				model["zz-other"] += 0
			}
			states[i] = st
		}

		cfg := Config{TopK: 1 + rng.Intn(12)}
		if rng.Intn(2) == 0 {
			cfg.Model = germany
		}
		window := rng.Intn(4) == 0
		fold := func(states []*Stored) *Range {
			if window {
				return FoldWindow(cfg, states...)
			}
			return Fold(cfg, time.Time{}, time.Time{}, states...)
		}
		bare := make([]*Stored, len(states))
		for i, st := range states {
			c := *st
			c.districts = DistrictSums{}
			bare[i] = &c
		}
		want := fold(bare)
		for id, n := range model { // map order: the rendering must not care
			want.districts.Add(NoDistrict, id, n)
		}
		got := fold(states)

		var rows []DistrictCount
		for _, id := range slices.Sorted(maps.Keys(model)) {
			dc := DistrictCount{ID: id, Flows: model[id]}
			if d, ok := germany.DistrictByID(id); ok && cfg.Model != nil {
				dc.Name, dc.StateCode = d.Name, d.StateCode
			}
			rows = append(rows, dc)
		}
		snap := got.Snapshot()
		if !reflect.DeepEqual(snap.Districts, rows) {
			t.Fatalf("round %d: districts\n%+v\nwant\n%+v", round, snap.Districts, rows)
		}
		gotSnap, _ := json.Marshal(snap)
		wantSnap, _ := json.Marshal(want.Snapshot())
		if string(gotSnap) != string(wantSnap) {
			t.Fatalf("round %d: snapshot\n%s\nwant\n%s", round, gotSnap, wantSnap)
		}
		if string(must(got.Stored().AppendBinary(nil, origin))) != string(must(want.Stored().AppendBinary(nil, origin))) {
			t.Fatalf("round %d: state bytes differ from the model's", round)
		}
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func decodeState(t *testing.T, origin time.Time, data []byte) *Stored {
	t.Helper()
	st, err := DecodeStored(Config{Origin: origin}, data)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
