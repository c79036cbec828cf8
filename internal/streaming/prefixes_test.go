package streaming

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
)

// TestFoldByIDAddsLikeAMap holds the fold by prefix id to a model that
// shares none of it: a map from prefix to summed flows. Sources are
// randomState's (IPv4 /24s and off the /24 index, IPv6, rows shared
// between sources) plus zero-count rows and more IPv6, each resolved
// against the table of the fold's first resolved source, against another
// table, or not at all — the router folds unresolved states, a store may
// hold some from a table it has since replaced. The fold must render the
// Snapshot and encode the state that the same fold renders with no prefix
// rows but the model's sums.
func TestFoldByIDAddsLikeAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shared, other := NewPrefixTable(), NewPrefixTable()
	origin := Config{}.WithDefaults().Origin
	for round := 0; round < 400; round++ {
		states := make([]*Stored, 1+rng.Intn(6))
		model := map[netip.Prefix]uint64{}
		for i := range states {
			st := randomState(rng, 0)
			for n := rng.Intn(4); n > 0; n-- {
				var a [16]byte
				a[0], a[1], a[15] = 0x20, 0x01, byte(rng.Intn(4))
				p := netip.PrefixFrom(netip.AddrFrom16(a), 120+rng.Intn(9)).Masked()
				if rng.Intn(2) == 0 {
					p = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, 9, byte(rng.Intn(4))}), 24)
				}
				if !containsKey(st.prefixes, p) {
					st.prefixes = append(st.prefixes, p)
					st.prefixCount = append(st.prefixCount, uint64(rng.Intn(2))) // zero half the time
				}
			}
			for j, p := range st.prefixes {
				model[p] += st.prefixCount[j]
			}
			switch rng.Intn(3) {
			case 0:
				shared.Resolve(st)
			case 1:
				other.Resolve(st)
			}
			states[i] = st
		}

		cfg := Config{TopK: 1 + rng.Intn(12)}
		from, to := time.Time{}, time.Time{}
		if rng.Intn(2) == 0 {
			from = origin.Add(time.Duration(rng.Intn(60)) * time.Hour)
			to = from.Add(time.Duration(1+rng.Intn(200)) * time.Hour)
		}
		window := rng.Intn(4) == 0
		fold := func(states []*Stored) *Range {
			if window {
				return FoldWindow(cfg, states...)
			}
			return Fold(cfg, from, to, states...)
		}
		bare := make([]*Stored, len(states))
		for i, st := range states {
			c := *st
			c.prefixes, c.prefixCount, c.table, c.ids = nil, nil, nil, nil
			bare[i] = &c
		}
		want := fold(bare)
		want.rowIDs, want.byID = nil, nil
		for p, n := range model { // map order: the rendering must not care
			want.prefixList = append(want.prefixList, p)
			want.prefixCount = append(want.prefixCount, n)
		}
		got := fold(states)

		gotSnap, _ := json.Marshal(got.Snapshot())
		wantSnap, _ := json.Marshal(want.Snapshot())
		if string(gotSnap) != string(wantSnap) {
			t.Fatalf("round %d: snapshot\n%s\nwant\n%s", round, gotSnap, wantSnap)
		}
		gotState, err := got.Stored().AppendBinary(nil, origin)
		if err != nil {
			t.Fatal(err)
		}
		wantState, err := want.Stored().AppendBinary(nil, origin)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotState) != string(wantState) {
			t.Fatalf("round %d: state bytes differ from the model's", round)
		}
		if len(got.prefixCount) != len(model) {
			t.Fatalf("round %d: %d rows for %d prefixes", round, len(got.prefixList), len(model))
		}
	}
}

// TestResolvedStatesCarryTheirIDs pins where ids come from: a shard bound
// with Intern gives each row one, those it holds and those it creates after,
// its Detach carries them, and Resolve gives an unresolved state one a row.
func TestResolvedStatesCarryTheirIDs(t *testing.T) {
	tab := NewPrefixTable()
	a := New(Config{})
	at := entime.StudyStart
	a.Ingest([]netflow.Record{keptRecord(at, client(1), 10)})
	a.Intern(tab)
	a.Ingest([]netflow.Record{keptRecord(at, client(300), 10), keptRecord(at, client(1), 10)})
	st := a.Detach(time.Time{}, time.Time{})
	if st.Table() != tab || len(st.ids) != 2 || tab.Len() != 2 {
		t.Fatalf("detached %d ids against %p (table %p of %d)", len(st.ids), st.Table(), tab, tab.Len())
	}
	for i, p := range st.prefixes {
		if tab.Prefixes()[st.ids[i]] != p {
			t.Fatalf("row %d: %s carries the id of %s", i, p, tab.Prefixes()[st.ids[i]])
		}
	}
	bare := *st
	bare.table, bare.ids = nil, nil
	other := NewPrefixTable()
	other.Resolve(&bare)
	if bare.Table() != other || other.Len() != 2 {
		t.Fatalf("Resolve left %d ids against %p", len(bare.ids), bare.Table())
	}
}
