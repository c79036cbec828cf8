package wire_test

// Goldens: the bytes every codec built on the envelope writes, committed
// once (testdata/golden, generated by the encoders of the commit before
// internal/wire existed) and held still. Each golden is checked both ways:
// the current encoders reproduce it from the fixed inputs below, and what
// the current decoders make of it encodes back to it. The data dir is a
// whole small store — two checkpoint frames, the day tier frame folded
// from the first, a WAL segment holding one live batch — so opening it is
// the "a store written by the previous version still opens" check.

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/api"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/sketch"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

const (
	goldenDir   = "testdata/golden"
	stateURL    = "/api/v1/query?resolution=day&format=state"
	lockName    = "LOCK" // the writable open's flock file, not store data
	fixtureDays = 2      // checkpointed days; one more stays in the WAL
)

// fixtureConfig is the analytics configuration of the golden store: a
// four-district geolocation database, so frames and state carry district
// rows.
func fixtureConfig(t *testing.T) streaming.Config {
	t.Helper()
	model := geo.Germany()
	var infos []geodb.PrefixInfo
	for i, d := range model.Districts()[:4] {
		infos = append(infos, geodb.PrefixInfo{
			Prefix:     netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24),
			RouterID:   fmt.Sprintf("R%03d", i),
			DistrictID: d.ID,
			ISPName:    "Blau",
		})
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return streaming.Config{WindowHours: 96, TopK: 5, DB: db, Model: model}
}

// fixtureBatch is one day's traffic: two busy hours, clients in three
// /24s (one of them outside the geodb), one record the filter drops.
// Times are UTC, which is how the WAL hands them back.
func fixtureBatch(day int) []netflow.Record {
	server := core.DefaultFilter().ServerPrefixes[0].Addr()
	rec := func(hour, net, host int, bytes uint64) netflow.Record {
		at := entime.StudyStart.Add(time.Duration(day*24+hour) * time.Hour).UTC()
		return netflow.Record{
			Key: netflow.Key{
				Src:     server,
				Dst:     netip.AddrFrom4([4]byte{100, 64, byte(net), byte(host)}),
				SrcPort: netflow.PortHTTPS,
				DstPort: uint16(50000 + host),
				Proto:   netflow.ProtoTCP,
			},
			Packets:  5,
			Bytes:    bytes,
			First:    at,
			Last:     at.Add(time.Second),
			Exporter: "ISP/BE-000",
		}
	}
	batch := []netflow.Record{
		rec(3, day%4, 7, 1200),
		rec(3, (day+1)%4, 8, 900),
		rec(9, day%4, 7, 400),
		rec(9, 9, 1, 100),
	}
	dropped := rec(3, 0, 9, 100)
	dropped.SrcPort = 80
	return append(batch, dropped)
}

// buildFixture writes the golden store into dir with the current code and
// returns the state body it serves.
func buildFixture(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := store.Open(dir, store.Options{Analytics: fixtureConfig(t), Tier: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for day := 0; day <= fixtureDays; day++ {
		if err := st.Append(fixtureBatch(day)); err != nil {
			t.Fatal(err)
		}
		if day < fixtureDays {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stateBody(t, st)
}

func stateBody(t *testing.T, st *store.Store) []byte {
	t.Helper()
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, stateURL, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", stateURL, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

func fixtureHLL() *sketch.HLL {
	h := sketch.NewHLL()
	for i := 0; i < 300; i++ {
		h.Add(fmt.Sprintf("100.64.%d.0/24", i))
	}
	return h
}

func fixtureQuantile() *sketch.Quantile {
	q := sketch.NewQuantile()
	for i := uint64(1); i < 40; i++ {
		q.Add(i*i, i)
	}
	return q
}

// storeFiles lists a data dir's files (the flock file aside) by name.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == lockName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%v (generate with -update at a commit whose bytes are the reference)", err)
	}
	return data
}

func TestEncodersReproduceGoldens(t *testing.T) {
	dir := t.TempDir()
	state := buildFixture(t, dir)
	built := storeFiles(t, dir)
	sketches := map[string][]byte{
		"hll.bin":      fixtureHLL().AppendBinary(nil),
		"quantile.bin": fixtureQuantile().AppendBinary(nil),
		"state.bin":    state,
	}
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(goldenDir, "datadir"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range sketches {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for name, data := range built {
			if err := os.WriteFile(filepath.Join(goldenDir, "datadir", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range sketches {
		if !bytes.Equal(data, golden(t, name)) {
			t.Errorf("%s: the encoder no longer writes the golden bytes", name)
		}
	}
	want := storeFiles(t, filepath.Join(goldenDir, "datadir"))
	kinds := map[string]bool{}
	for name, data := range want {
		kinds[name[:4]] = true
		if !bytes.Equal(built[name], data) {
			t.Errorf("datadir/%s: the store no longer writes the golden bytes (%d bytes, golden %d)", name, len(built[name]), len(data))
		}
	}
	if len(built) != len(want) {
		t.Errorf("the store wrote %d files, the golden data dir holds %d", len(built), len(want))
	}
	for _, kind := range []string{"meta", "ckpt", "tier", "wal-"} {
		if !kinds[kind] {
			t.Errorf("the golden data dir holds no %s file", kind)
		}
	}
}

func TestGoldensDecodeAndReencode(t *testing.T) {
	raw := golden(t, "hll.bin")
	h, n, err := sketch.DecodeHLL(raw)
	if err != nil || n != len(raw) || !bytes.Equal(h.AppendBinary(nil), raw) {
		t.Errorf("hll.bin: consumed %d of %d, err %v, or re-encoded differently", n, len(raw), err)
	}
	raw = golden(t, "quantile.bin")
	q, n, err := sketch.DecodeQuantile(raw)
	if err != nil || n != len(raw) || !bytes.Equal(q.AppendBinary(nil), raw) {
		t.Errorf("quantile.bin: consumed %d of %d, err %v, or re-encoded differently", n, len(raw), err)
	}

	// The state body: its exact part and its long-horizon frame, each
	// through its own codec and back.
	raw = golden(t, "state.bin")
	const stateHeaderLen = 44 // internal/api/state.go
	ss, err := api.DecodeState(raw)
	if err != nil {
		t.Fatalf("state.bin: %v", err)
	}
	if ss.LongHorizon == nil || ss.Resolution != tier.ResolutionDay || !ss.TailIncluded {
		t.Fatalf("state.bin decoded to %+v: want a day answer with the tail", ss)
	}
	exact, err := ss.State.AppendBinary(nil, ss.Origin)
	if err != nil {
		t.Fatal(err)
	}
	if again := append(exact, tier.EncodeFrame(ss.LongHorizon)...); !bytes.Equal(again, raw[stateHeaderLen:]) {
		t.Error("state.bin: state and frame re-encode differently")
	}

	// The data dir: every tier frame through its codec and back; then the
	// whole store, opened from a copy of the golden files, serves the
	// golden state body and replays the golden WAL into the fixture batch.
	dir := t.TempDir()
	for name, data := range storeFiles(t, filepath.Join(goldenDir, "datadir")) {
		if name[:4] == "tier" {
			f, err := tier.DecodeFrame(data)
			if err != nil || !bytes.Equal(tier.EncodeFrame(f), data) {
				t.Errorf("datadir/%s: err %v, or re-encoded differently", name, err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, store.Options{Analytics: fixtureConfig(t), ReadOnly: true})
	if err != nil {
		t.Fatalf("opening the golden data dir: %v", err)
	}
	defer st.Close()
	if m := st.Metrics(); m.RecoveredFrames != fixtureDays || m.TierFramesDay != 1 || m.RecoveredWALRecords != uint64(len(fixtureBatch(0))) {
		t.Errorf("recovered %d frames, %d day frames, %d WAL records", m.RecoveredFrames, m.TierFramesDay, m.RecoveredWALRecords)
	}
	if !bytes.Equal(stateBody(t, st), raw) {
		t.Error("the golden data dir no longer serves the golden state body")
	}
	var walked [][]netflow.Record
	if err := store.WalkWAL(dir, func(b []netflow.Record) error {
		walked = append(walked, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]netflow.Record{fixtureBatch(fixtureDays)}; !reflect.DeepEqual(walked, want) {
		t.Errorf("the golden WAL replays to %v, want %v", walked, want)
	}
}
