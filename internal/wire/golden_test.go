package wire_test

// Goldens: the bytes every codec built on the envelope writes, committed
// once (testdata/golden, generated by the encoders of the commit before
// internal/wire existed) and held still. Each golden is checked both ways:
// the current encoders reproduce it from the fixed inputs below, and what
// the current decoders make of it encodes back to it. The data dir is a
// whole small store — two checkpoint frames, the day tier frame folded
// from the first, a WAL segment holding one live batch — so opening it is
// the "a store written by the previous version still opens" check.
//
// A second store (testdata/golden/weeks, written by the commit before
// tier.Builder became the one place tier aggregates are summed, rewritten
// when compaction came to fold runs of frames: the same folds under other
// frame seqs, and other compacted frames, in the same codecs) outlives
// two closed weeks, so that every shape a fold meets is held to its bytes:
// day frames of one and of two inputs, one with an accounting-only input,
// week frames of seven day frames, raw frames compacted past MaxFrames,
// a district a checkpoint lists with no flows, and the week-resolution
// state body a router would be sent.

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
	"strings"
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
	"cwatrace/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

const (
	goldenDir   = "testdata/golden"
	lockName    = "LOCK" // the writable open's flock file, not store data
	fixtureDays = 2      // checkpointed days; one more stays in the WAL
	// weeksDays days are checkpointed, one more stays in the WAL: the days
	// before the last fold, and with day 14 folded so do weeks 0 and 1.
	weeksDays      = 16
	weeksMaxFrames = 8
	// weeksFrames checkpoint frames stay: past weeksMaxFrames a compaction
	// folds the oldest run down to weeksMaxFrames/2, and the last such
	// fold is followed by three more checkpoints.
	weeksFrames = 7
)

// A fixture is one golden store under goldenDir and the state body it
// serves.
type fixture struct {
	dir   string // "" for the first, which the damage table reads too
	url   string
	build func(t *testing.T, dir string) *store.Store
	// What a read-only open of the golden files recovers, and the batch
	// its WAL holds.
	frames, dayFrames, weekFrames int
	tailDay                       int
}

var fixtures = []fixture{
	{dir: "", url: "/api/v1/query?resolution=day&format=state", build: buildFixture,
		frames: fixtureDays, dayFrames: 1, tailDay: fixtureDays},
	{dir: "weeks", url: "/api/v1/query?resolution=week&format=state", build: buildWeeksFixture,
		frames: weeksFrames, dayFrames: weeksDays - 1, weekFrames: 2, tailDay: weeksDays},
}

func (fx fixture) path(name string) string { return filepath.Join(fx.dir, name) }

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

func mustOpen(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkpoint appends one batch and folds it into a checkpoint frame.
func checkpoint(t *testing.T, st *store.Store, batch []netflow.Record) {
	t.Helper()
	if err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// buildFixture writes the first golden store into dir with the current
// code and returns it open.
func buildFixture(t *testing.T, dir string) *store.Store {
	t.Helper()
	st := mustOpen(t, dir, store.Options{Analytics: fixtureConfig(t), Tier: true})
	for day := 0; day < fixtureDays; day++ {
		checkpoint(t, st, fixtureBatch(day))
	}
	if err := st.Append(fixtureBatch(fixtureDays)); err != nil {
		t.Fatal(err)
	}
	return st
}

// buildWeeksFixture writes the second golden store. Every third day is
// checkpointed twice (a day frame of two inputs), day 5 keeps its dropped
// record for a checkpoint of its own (an accounting-only input), the frame
// bound is low enough that raw frames compact, and the store is closed
// after day 0 to plant what no ingest produces: a district listed with no
// flows, which every fold above it has to keep listing.
func buildWeeksFixture(t *testing.T, dir string) *store.Store {
	t.Helper()
	cfg := fixtureConfig(t)
	opts := store.Options{Analytics: cfg, Tier: true, MaxFrames: weeksMaxFrames}
	st := mustOpen(t, dir, opts)
	checkpoint(t, st, fixtureBatch(0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	plantZeroFlowDistrict(t, filepath.Join(dir, "ckpt-0000000000000001.ck"), cfg)

	st = mustOpen(t, dir, opts)
	for day := 1; day < weeksDays; day++ {
		batch, cut := fixtureBatch(day), 0
		switch {
		case day == 5:
			cut = len(batch) - 1
		case day%3 == 1:
			cut = 2
		}
		if cut > 0 {
			checkpoint(t, st, batch[:cut])
		}
		checkpoint(t, st, batch[cut:])
	}
	if err := st.Append(fixtureBatch(weeksDays)); err != nil {
		t.Fatal(err)
	}
	return st
}

// plantZeroFlowDistrict rewrites the checkpoint frame at path, which holds
// day 0's batch, with the state of a shard that ingested the same batch
// and was then told of a fifth district without a flow in it.
func plantZeroFlowDistrict(t *testing.T, path string, cfg streaming.Config) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, _, err := wire.ReadFrame(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	const frameInfoLen = 7 * 8 // internal/store/codec.go: the frame's metadata, then its state
	cfg.Archive = true
	shard := streaming.New(cfg)
	shard.Ingest(fixtureBatch(0))
	shard.Merge(streaming.FromSnapshot(&streaming.Snapshot{
		Origin:      shard.Config().Origin,
		WindowHours: cfg.WindowHours,
		Districts:   []streaming.DistrictCount{{ID: cfg.Model.Districts()[4].ID}},
	}))
	state, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	planted := wire.AppendFrame(nil, kind, append(payload[:frameInfoLen:frameInfoLen], state...))
	if err := os.WriteFile(path, planted, 0o644); err != nil {
		t.Fatal(err)
	}
}

func stateBody(t *testing.T, st *store.Store, url string) []byte {
	t.Helper()
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", url, w.Code, w.Body)
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
	built := map[string][]byte{
		"hll.bin":      fixtureHLL().AppendBinary(nil),
		"quantile.bin": fixtureQuantile().AppendBinary(nil),
	}
	for _, fx := range fixtures {
		dir := t.TempDir()
		st := fx.build(t, dir)
		built[fx.path("state.bin")] = stateBody(t, st, fx.url)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for name, data := range storeFiles(t, dir) {
			built[fx.path(filepath.Join("datadir", name))] = data
		}
	}
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		for name, data := range built {
			path := filepath.Join(goldenDir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range built {
		if want := golden(t, name); !bytes.Equal(data, want) {
			t.Errorf("%s: the current code no longer writes the golden bytes (%d bytes, golden %d)", name, len(data), len(want))
		}
	}
	for _, fx := range fixtures {
		want := storeFiles(t, filepath.Join(goldenDir, fx.path("datadir")))
		for name := range want {
			if _, ok := built[fx.path(filepath.Join("datadir", name))]; !ok {
				t.Errorf("%s: the store no longer writes this golden file", fx.path(filepath.Join("datadir", name)))
			}
		}
		kinds := []string{"meta.json", "ckpt-", "tier-d-", "wal-"}
		if fx.weekFrames > 0 {
			kinds = append(kinds, "tier-w-")
		}
		for _, kind := range kinds {
			held := false
			for name := range want {
				held = held || strings.HasPrefix(name, kind)
			}
			if !held {
				t.Errorf("the golden data dir %q holds no %s file", fx.dir, kind)
			}
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
	for _, fx := range fixtures {
		goldenStoreDecodesAndReencodes(t, fx)
	}
}

func goldenStoreDecodesAndReencodes(t *testing.T, fx fixture) {
	// The state body: its exact part and its long-horizon frame, each
	// through its own codec and back.
	raw := golden(t, fx.path("state.bin"))
	const stateHeaderLen = 44 // internal/api/state.go
	ss, err := api.DecodeState(raw)
	if err != nil {
		t.Fatalf("%s: %v", fx.path("state.bin"), err)
	}
	if ss.LongHorizon == nil || !strings.Contains(fx.url, "resolution="+string(ss.Resolution)) || !ss.TailIncluded {
		t.Fatalf("%s decoded to %+v: want the tiered answer to %s with the tail", fx.path("state.bin"), ss, fx.url)
	}
	exact, err := ss.State.AppendBinary(nil, ss.Origin)
	if err != nil {
		t.Fatal(err)
	}
	if again := append(exact, tier.EncodeFrame(ss.LongHorizon)...); !bytes.Equal(again, raw[stateHeaderLen:]) {
		t.Errorf("%s: state and frame re-encode differently", fx.path("state.bin"))
	}

	// The data dir: every tier frame through its codec and back; then the
	// whole store, opened from a copy of the golden files, serves the
	// golden state body and replays the golden WAL into the fixture batch.
	dir := t.TempDir()
	for name, data := range storeFiles(t, filepath.Join(goldenDir, fx.path("datadir"))) {
		if name[:4] == "tier" {
			f, err := tier.DecodeFrame(data)
			if err != nil || !bytes.Equal(tier.EncodeFrame(f), data) {
				t.Errorf("%s: err %v, or re-encoded differently", fx.path(filepath.Join("datadir", name)), err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, store.Options{Analytics: fixtureConfig(t), ReadOnly: true})
	if err != nil {
		t.Fatalf("opening the golden data dir %q: %v", fx.dir, err)
	}
	defer st.Close()
	tail := fixtureBatch(fx.tailDay)
	if m := st.Metrics(); m.RecoveredFrames != fx.frames || m.TierFramesDay != fx.dayFrames || m.TierFramesWeek != fx.weekFrames || m.RecoveredWALRecords != uint64(len(tail)) {
		t.Errorf("%q: recovered %d frames, %d day and %d week frames, %d WAL records", fx.dir, m.RecoveredFrames, m.TierFramesDay, m.TierFramesWeek, m.RecoveredWALRecords)
	}
	if !bytes.Equal(stateBody(t, st, fx.url), raw) {
		t.Errorf("the golden data dir %q no longer serves the golden state body", fx.dir)
	}
	var walked [][]netflow.Record
	if err := store.WalkWAL(dir, func(b []netflow.Record) error {
		walked = append(walked, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]netflow.Record{tail}; !reflect.DeepEqual(walked, want) {
		t.Errorf("the golden WAL of %q replays to %v, want %v", fx.dir, walked, want)
	}
}
