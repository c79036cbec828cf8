package streaming

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
)

// clientGeoDB places the client /24s 100.64.k.0/24 (see client) for the
// given k, two of them per district, through the router-ground-truth
// path; every other /24 of 100.64.0.0/16 is unplaced.
func clientGeoDB(t testing.TB, model *geo.Model, located ...int) *geodb.DB {
	t.Helper()
	districts := model.Districts()
	infos := make([]geodb.PrefixInfo, len(located))
	for i, k := range located {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(k), 0}), 24)
		infos[i] = geodb.PrefixInfo{Prefix: p, RouterID: fmt.Sprintf("R%03d", k), DistrictID: districts[i/2].ID, ISPName: "Blau"}
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTailLocatesLikeTheDB holds the district a prefix row carries to the
// database: whichever way a row was first interned — by a record, by a
// Merge of another shard, by merging a FromSnapshot rebuild, by restoring
// a marshaled state — Located and every district count equal what asking
// DB.Locate for each kept, in-window record counts. The records
// interleave placed and unplaced /24s, some are late (before Origin) and
// some filtered, so a row memoized before the DB answered, or an unplaced
// row counted as located, shows up in the totals.
func TestTailLocatesLikeTheDB(t *testing.T) {
	model := geo.Germany()
	var located []int
	for k := 0; k < 40; k += 3 {
		located = append(located, k, k+1)
	}
	db := clientGeoDB(t, model, located...)
	cfg := Config{WindowHours: 96, TopK: 64, DB: db, Model: model}

	rng := rand.New(rand.NewSource(7))
	recs := make([]netflow.Record, 4000)
	for i := range recs {
		at := entime.StudyStart.Add(time.Duration(rng.Intn(48*3600)) * time.Second)
		if rng.Intn(20) == 0 {
			at = entime.StudyStart.Add(-time.Duration(1+rng.Intn(3600)) * time.Second)
		}
		recs[i] = keptRecord(at, netip.AddrFrom4([4]byte{100, 64, byte(rng.Intn(40)), byte(rng.Intn(256))}), 500)
		if rng.Intn(20) == 0 {
			recs[i].SrcPort = 80
		}
	}
	filter := core.DefaultFilter()
	wantLocated, wantDistricts := uint64(0), map[string]uint64{}
	for i := range recs {
		r := &recs[i]
		if filter.Classify(*r) != core.Kept || r.First.Before(entime.StudyStart) {
			continue
		}
		if e, ok := db.Locate(r.Dst); ok {
			wantLocated++
			wantDistricts[e.DistrictID]++
		}
	}
	if wantLocated == 0 || len(wantDistricts) < 10 {
		t.Fatalf("fixture locates %d records in %d districts", wantLocated, len(wantDistricts))
	}

	head, rest := recs[:len(recs)/2], recs[len(recs)/2:]
	ingested := func(recs []netflow.Record) *Analytics {
		a := New(cfg)
		for len(recs) > 0 { // in export-sized batches
			n := min(len(recs), 25)
			a.Ingest(recs[:n])
			recs = recs[n:]
		}
		return a
	}
	other := ingested(head)
	state, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]func() *Analytics{
		"ingest": func() *Analytics { return ingested(recs) },
		"merge": func() *Analytics {
			a := New(cfg)
			a.Merge(other)
			return a
		},
		"from-snapshot": func() *Analytics {
			a := New(cfg)
			a.Merge(FromSnapshot(other.Snapshot()))
			return a
		},
		"restore": func() *Analytics {
			a, err := UnmarshalAnalyticsStored(cfg, state)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	} {
		t.Run(name, func(t *testing.T) {
			a := a()
			if name != "ingest" {
				a.Ingest(rest)
			}
			s := a.Snapshot()
			got := map[string]uint64{}
			for _, d := range s.Districts {
				got[d.ID] = d.Flows
			}
			if s.Located != wantLocated || !reflect.DeepEqual(got, wantDistricts) {
				t.Fatalf("located %d in %v\nwant %d in %v", s.Located, got, wantLocated, wantDistricts)
			}
		})
	}
}
