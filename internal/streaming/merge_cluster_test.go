package streaming

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
)

// districtGeoDB maps one distinct client /24 to every one of the 401
// districts, through the router-ground-truth path so the mapping is exact
// and deterministic.
func districtGeoDB(t *testing.T, model *geo.Model) (*geodb.DB, []netip.Prefix) {
	t.Helper()
	districts := model.Districts()
	infos := make([]geodb.PrefixInfo, len(districts))
	prefixes := make([]netip.Prefix, len(districts))
	for i, d := range districts {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + i>>8), byte(i), 0}), 24)
		infos[i] = geodb.PrefixInfo{Prefix: p, RouterID: fmt.Sprintf("R%03d", i), DistrictID: d.ID, ISPName: "Blau"}
		prefixes[i] = p
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, prefixes
}

// TestMergeOrderInvarianceAcrossDistrictShards pins the algebra the
// clustered collectors lean on: when one capture is partitioned across
// shards by the 401-district key, Merge is commutative and associative —
// any merge order and any grouping of the per-district shards produces
// byte-identical marshaled state and a byte-identical snapshot. The shards
// are built concurrently so `make race` also covers the construction side.
func TestMergeOrderInvarianceAcrossDistrictShards(t *testing.T) {
	model := geo.Germany()
	db, prefixes := districtGeoDB(t, model)
	cfg := Config{WindowHours: 96, DB: db, Model: model}

	const nShards = 8
	// The cluster partition: district index (canonical sorted-ID order)
	// modulo the shard count. Every record of one district lands wholly in
	// one shard.
	owner := func(d int) int { return d % nShards }

	type rec struct {
		shard int
		r     netflow.Record
	}
	var recs []rec
	for d, p := range prefixes {
		addr := netip.AddrFrom4(p.Addr().As4())
		a4 := addr.As4()
		a4[3] = byte(7 + d%31)
		client := netip.AddrFrom4(a4)
		for h := 0; h < 3+d%5; h++ {
			r := keptRecord(entime.StudyStart.Add(time.Duration((d+h)%48)*time.Hour), client, uint64(100+d*3+h))
			recs = append(recs, rec{shard: owner(d), r: r})
		}
	}
	// Some traffic the filter drops, and a late record, spread over shards.
	for i := 0; i < nShards; i++ {
		bad := keptRecord(entime.StudyStart.Add(time.Hour), netip.AddrFrom4([4]byte{10, 1, byte(i), 9}), 50)
		bad.SrcPort = 80
		recs = append(recs, rec{shard: i, r: bad})
		late := keptRecord(entime.StudyStart.Add(-2*time.Hour), netip.AddrFrom4([4]byte{10, 1, byte(i), 10}), 50)
		recs = append(recs, rec{shard: i, r: late})
	}

	buildShards := func() []*Analytics {
		shards := make([]*Analytics, nShards)
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a := New(cfg)
				for _, rr := range recs {
					if rr.shard == i {
						a.Ingest([]netflow.Record{rr.r})
					}
				}
				shards[i] = a
			}(i)
		}
		wg.Wait()
		return shards
	}

	render := func(order [][]int) (state []byte, snap []byte) {
		t.Helper()
		shards := buildShards()
		// Merge each group into its own accumulator, then fold the group
		// accumulators left to right: [][]int{{0},{1},...} is a plain
		// sequential order, nested groups exercise associativity.
		groups := make([]*Analytics, len(order))
		for gi, g := range order {
			acc := New(cfg)
			for _, si := range g {
				acc.Merge(shards[si])
			}
			groups[gi] = acc
		}
		m := New(cfg)
		for _, g := range groups {
			m.Merge(g)
		}
		st, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return st, sj
	}

	orders := map[string][][]int{
		"sequential":  {{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
		"reversed":    {{7}, {6}, {5}, {4}, {3}, {2}, {1}, {0}},
		"interleaved": {{4}, {0}, {6}, {2}, {5}, {1}, {7}, {3}},
		"pairs":       {{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		"tree":        {{0, 1, 2, 3}, {4, 5, 6, 7}},
		"lopsided":    {{7, 0, 3}, {5}, {1, 6, 2, 4}},
	}
	baseState, baseSnap := render(orders["sequential"])
	if len(baseState) == 0 {
		t.Fatal("empty marshaled state")
	}
	for name, order := range orders {
		state, snap := render(order)
		if !bytes.Equal(state, baseState) {
			t.Errorf("merge order %q: marshaled state differs from sequential order", name)
		}
		if !bytes.Equal(snap, baseSnap) {
			t.Errorf("merge order %q: snapshot JSON differs from sequential order", name)
		}
	}
}

// TestFromSnapshotRoundTrip pins the reconstruction behind the state a
// shard ships to the query router: rendering a shard and restoring it with FromSnapshot must
// yield a shard whose own rendering is byte-identical, and merging
// restored shards must equal merging the originals.
func TestFromSnapshotRoundTrip(t *testing.T) {
	model := geo.Germany()
	db, prefixes := districtGeoDB(t, model)
	cfg := Config{WindowHours: 96, DB: db, Model: model}

	a := New(cfg)
	for d := 0; d < 40; d++ {
		a4 := prefixes[d].Addr().As4()
		a4[3] = 9
		for h := 0; h < 5; h++ {
			a.Ingest([]netflow.Record{keptRecord(entime.StudyStart.Add(time.Duration(h*2)*time.Hour), netip.AddrFrom4(a4), uint64(10+d+h))})
		}
	}
	bad := keptRecord(entime.StudyStart, netip.AddrFrom4([4]byte{10, 1, 0, 9}), 5)
	bad.SrcPort = 80
	a.Ingest([]netflow.Record{bad})

	orig := a.Snapshot()
	restored := FromSnapshot(orig)

	// The restored shard has no Model, so rendered district names are
	// empty — the router labels the merged result from its own model.
	// Compare everything else byte-for-byte by re-rendering
	// the original through the same nameless merge path.
	nameless := New(Config{Origin: orig.Origin, WindowHours: orig.WindowHours})
	nameless.Merge(a)
	want, err := json.Marshal(nameless.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(restored.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored snapshot differs:\n got: %.500s\nwant: %.500s", got, want)
	}
}
