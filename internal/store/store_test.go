package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/geo"
	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// testConfig is the analytics configuration the store tests share.
func testConfig() streaming.Config {
	return streaming.Config{WindowHours: 48, TopK: 5}
}

// locatingConfig is testConfig with a geolocation sidecar that places
// 100.64.k.0/24 in the model's k-th district for every k below n.
func locatingConfig(t *testing.T, n int) streaming.Config {
	t.Helper()
	model := geo.Germany()
	var infos []geodb.PrefixInfo
	for k, d := range model.Districts()[:n] {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(k), 0}), 24)
		infos = append(infos, geodb.PrefixInfo{Prefix: p, RouterID: fmt.Sprintf("R%03d", k), DistrictID: d.ID, ISPName: "Blau"})
	}
	db, err := geodb.Build(model, infos, geodb.Config{PartnerISP: "Blau", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.DB, cfg.Model = db, model
	return cfg
}

// keptRecord fabricates a record the paper's filter keeps, landing in
// hour h of the study window.
func keptRecord(h, client int, bytes uint64) netflow.Record {
	f := core.DefaultFilter()
	at := entime.StudyStart.Add(time.Duration(h) * time.Hour)
	return netflow.Record{
		Key: netflow.Key{
			Src:     f.ServerPrefixes[0].Addr(),
			Dst:     netip.AddrFrom4([4]byte{100, 64, byte(client >> 8), byte(client)}),
			SrcPort: netflow.PortHTTPS,
			DstPort: uint16(50000 + client%1000),
			Proto:   netflow.ProtoTCP,
		},
		Packets:  5,
		Bytes:    bytes,
		First:    at,
		Last:     at.Add(time.Second),
		Exporter: "ISP/BE-000",
	}
}

// droppedRecord fabricates a record the filter rejects (wrong port).
func droppedRecord(h, client int) netflow.Record {
	r := keptRecord(h, client, 100)
	r.SrcPort = 80
	return r
}

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Analytics.WindowHours == 0 && opts.Analytics.Origin.IsZero() {
		opts.Analytics = testConfig()
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

// snapJSON renders a snapshot canonically for byte comparison.
func snapJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAppendSnapshotMatchesDirectIngest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ref := streaming.New(testConfig())
	for i := 0; i < 20; i++ {
		batch := []netflow.Record{
			keptRecord(i%10, i, uint64(100+i)),
			droppedRecord(i%10, i),
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.Ingest(batch)
	}
	if got, want := snapJSON(t, s.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatalf("store snapshot diverges from direct ingest:\n got %s\nwant %s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAfterCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	ref := streaming.New(testConfig())

	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		batch := []netflow.Record{keptRecord(i, i, 500)}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.Ingest(batch)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail records after the checkpoint, not folded before the "crash".
	for i := 10; i < 17; i++ {
		batch := []netflow.Record{keptRecord(i%20, i, 700)}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.Ingest(batch)
	}
	if err := s.Close(); err != nil { // close without checkpoint == clean crash
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	m := r.Metrics()
	if m.RecoveredFrames != 1 {
		t.Fatalf("recovered %d frames, want 1", m.RecoveredFrames)
	}
	if m.RecoveredWALRecords != 7 {
		t.Fatalf("replayed %d WAL records, want 7", m.RecoveredWALRecords)
	}
	if got, want := snapJSON(t, r.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatalf("recovered snapshot diverges:\n got %s\nwant %s", got, want)
	}
	// The recovered store keeps accepting appends.
	if err := r.Append([]netflow.Record{keptRecord(3, 99, 100)}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayedTailLocatesLikeTheDB holds a store's district counts to the
// geolocation database across a checkpoint and a reopen: the reopened
// store's tail interns its prefix rows by replaying the WAL, and the
// records appended after that land in those rows. Located and every
// district count must equal asking DB.Locate for each kept record.
func TestReplayedTailLocatesLikeTheDB(t *testing.T) {
	opts := Options{Analytics: locatingConfig(t, 20), Sync: SyncNever} // 100.64.k.0/24; k in [20, 40) unplaced
	db := opts.Analytics.DB
	wantLocated, want := uint64(0), map[string]uint64{}
	batch := func(round int) []netflow.Record {
		var recs []netflow.Record
		for i := 0; i < 200; i++ {
			r := keptRecord(i%24, ((i*7+round)%40)<<8|i%256, 400)
			if i%13 == 0 {
				r.SrcPort = 80
			} else if e, ok := db.Locate(r.Dst); ok {
				wantLocated++
				want[e.DistrictID]++
			}
			recs = append(recs, r)
		}
		return recs
	}

	dir := t.TempDir()
	s := mustOpen(t, dir, opts)
	// Close without a checkpoint: the second batch is in the WAL only.
	for _, err := range []error{s.Append(batch(0)), s.Checkpoint(), s.Append(batch(1)), s.Close()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if m := r.Metrics(); m.RecoveredWALRecords == 0 {
		t.Fatal("the reopen replayed nothing")
	}
	if err := r.Append(batch(2)); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	got := map[string]uint64{}
	for _, d := range snap.Districts {
		got[d.ID] = d.Flows
	}
	if snap.Located != wantLocated || !reflect.DeepEqual(got, want) {
		t.Fatalf("located %d in %v\nwant %d in %v", snap.Located, got, wantLocated, want)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 8; i++ {
		if err := s.Append([]netflow.Record{keptRecord(i, i, 300)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs := walFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	if err := os.Truncate(segs[0], st.Size()-5); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	m := r.Metrics()
	if m.RecoveredWALRecords != 7 {
		t.Fatalf("replayed %d records after tear, want 7", m.RecoveredWALRecords)
	}
	if m.TruncatedBytes == 0 {
		t.Fatal("truncated bytes not accounted")
	}
	if got := r.Snapshot().Census.Kept; got != 7 {
		t.Fatalf("recovered census kept %d, want 7", got)
	}
	// The torn segment was truncated at the last intact record: walking
	// the WAL now yields exactly the surviving records.
	n := 0
	if err := WalkWAL(dir, func(batch []netflow.Record) error {
		n += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("WalkWAL sees %d records, want 7", n)
	}

	t.Run("group_cut_at_every_offset", testTornGroupEveryOffset)
}

// testTornGroupEveryOffset commits one group of k batches with a single
// AppendGroup — one write(2), the unit a power cut can tear — and then
// cuts the segment at every byte offset inside it. Recovery must replay
// exactly the whole record frames before the cut, account the rest as
// truncated, leave a WAL that WalkWAL reads the same way, and serve the
// snapshot streaming computes over those batches: a group is k ordinary
// records on disk, nothing more.
func testTornGroupEveryOffset(t *testing.T) {
	group := [][]netflow.Record{
		{keptRecord(0, 1, 100), keptRecord(0, 2, 200), droppedRecord(1, 3)},
		{keptRecord(1, 4, 300)},
		nil, // skipped: leaves no record on disk
		{keptRecord(2, 5, 400), keptRecord(30, 6, 500)},
		{droppedRecord(2, 7), keptRecord(3, 8, 600), keptRecord(3, 9, 700)},
	}
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	if err := s.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walFiles(t, src)
	if len(segs) != 1 {
		t.Fatalf("segments on disk: %v", segs)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(src, metaName))
	if err != nil {
		t.Fatal(err)
	}

	// The segment is the header plus one ordinary frame per non-empty
	// batch, byte for byte what k single Appends write. ends[i] is the
	// offset just past frame i.
	var batches [][]netflow.Record
	want := append([]byte(nil), seg[:segHeaderLen]...)
	var ends []int
	for _, b := range group {
		if len(b) == 0 {
			continue
		}
		batches = append(batches, b)
		want = appendRecordFrame(want, recTypeBatch, appendBatchPayload(nil, b))
		ends = append(ends, len(want))
	}
	if !bytes.Equal(seg, want) {
		t.Fatalf("group commit wrote %d bytes, want the %d bytes of %d single-batch frames", len(seg), len(want), len(batches))
	}

	for cut := segHeaderLen; cut <= len(seg); cut++ {
		whole, boundary := 0, segHeaderLen
		for whole < len(ends) && ends[whole] <= cut {
			boundary = ends[whole]
			whole++
		}
		ref := streaming.New(testConfig())
		records := 0
		for _, b := range batches[:whole] {
			ref.Ingest(b)
			records += len(b)
		}

		dir := filepath.Join(t.TempDir(), "d")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		m := r.Metrics()
		if m.RecoveredWALRecords != uint64(records) || m.TruncatedBytes != int64(cut-boundary) {
			t.Fatalf("cut %d: replayed %d records and truncated %d bytes, want %d and %d",
				cut, m.RecoveredWALRecords, m.TruncatedBytes, records, cut-boundary)
		}
		if got, want := snapJSON(t, r.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
			t.Fatalf("cut %d: recovered snapshot diverges from streaming over %d batches", cut, whole)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		walked := 0
		if err := WalkWAL(dir, func(batch []netflow.Record) error {
			if !bytes.Equal(appendBatchPayload(nil, batch), appendBatchPayload(nil, batches[walked])) {
				t.Fatalf("cut %d: WalkWAL batch %d differs from what was committed", cut, walked)
			}
			walked++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if walked != whole {
			t.Fatalf("cut %d: WalkWAL sees %d batches, want %d", cut, walked, whole)
		}
	}
}

func TestSegmentRotationAndCheckpointFolding(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256}) // rotate every few batches
	for i := 0; i < 30; i++ {
		if err := s.Append([]netflow.Record{keptRecord(i%12, i, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Segments < 3 {
		t.Fatalf("segments = %d, rotation never happened", m.Segments)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Segments != 1 || m.Frames != 1 || m.TailRecords != 0 {
		t.Fatalf("after checkpoint: %+v", m)
	}
	if segs := walFiles(t, dir); len(segs) != 1 {
		t.Fatalf("WAL files on disk after fold: %v", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything lives in the frame now; recovery replays no WAL.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if rm := r.Metrics(); rm.RecoveredWALRecords != 0 || rm.RecoveredFrames != 1 {
		t.Fatalf("recovery after clean fold: %+v", rm)
	}
	if got := r.Snapshot().Census.Kept; got != 30 {
		t.Fatalf("kept %d, want 30", got)
	}
}

func TestFrameCompactionBoundsFrameCount(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxFrames: 2})
	ref := streaming.New(testConfig())
	for ck := 0; ck < 5; ck++ {
		for i := 0; i < 4; i++ {
			batch := []netflow.Record{keptRecord(ck*8+i, ck*100+i, 200)}
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			ref.Ingest(batch)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Frames > 2 {
		t.Fatalf("frames = %d, want <= 2 after compaction", m.Frames)
	}
	if m.CompactedFrames == 0 {
		t.Fatal("compaction never ran")
	}
	// Compaction must not change any aggregate.
	res, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, res.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatalf("compacted query diverges:\n got %s\nwant %s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And the compacted store recovers cleanly.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got, want := snapJSON(t, r.Snapshot()), snapJSON(t, ref.Snapshot()); got != want {
		t.Fatal("compacted store recovers to a different state")
	}
}

func TestMetaAdoptionAndConflict(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Analytics: streaming.Config{WindowHours: 48, TopK: 3}})
	if err := s.Append([]netflow.Record{keptRecord(1, 1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A zero config adopts the stored parameters.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("zero-config reopen: %v", err)
	}
	if cfg := r.Config(); cfg.WindowHours != 48 || cfg.TopK != 3 {
		t.Fatalf("adopted config %+v", cfg)
	}
	r.Close()

	// A conflicting state-affecting parameter is rejected.
	if _, err := Open(dir, Options{Analytics: streaming.Config{WindowHours: 24}}); err == nil {
		t.Fatal("conflicting WindowHours must fail the open")
	}

	// So is a store that counted clients by another prefix length: every
	// build counts by /24.
	meta := filepath.Join(dir, metaName)
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	planted := strings.Replace(string(data), `"prefix_bits": 24`, `"prefix_bits": 16`, 1)
	if planted == string(data) {
		t.Fatalf("meta.json carries no /24 prefix length:\n%s", data)
	}
	if err := os.WriteFile(meta, []byte(planted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "/16") {
		t.Fatalf("a stored /16 must fail the open naming it, got %v", err)
	}
}

// TestOpenRejectsWindowPastBound holds Open to the window bound the frame
// reader enforces: a window past streaming.MaxWindowHours fails the open
// and leaves no meta behind, while one at the bound checkpoints, answers
// and reopens.
func TestOpenRejectsWindowPastBound(t *testing.T) {
	dir := t.TempDir()
	_, err := Open(dir, Options{Analytics: streaming.Config{WindowHours: streaming.MaxWindowHours + 1}})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(streaming.MaxWindowHours)) {
		t.Fatalf("a window past the bound must fail the open naming it, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaName)); !os.IsNotExist(err) {
		t.Fatalf("the refused open left %s behind: %v", metaName, err)
	}

	cfg := streaming.Config{WindowHours: streaming.MaxWindowHours, TopK: 5}
	s := mustOpen(t, dir, Options{Analytics: cfg})
	if err := s.Append([]netflow.Record{keptRecord(1, 1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotResult(); err != nil {
		t.Fatalf("snapshot at the bound: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Analytics: cfg})
	defer r.Close()
	res, err := r.SnapshotResult()
	if err != nil {
		t.Fatalf("snapshot after reopen: %v", err)
	}
	if got := res.Snapshot().Census.Total; got != 1 {
		t.Fatalf("census total %d after reopen, want 1", got)
	}
}

func TestSegmentBytesAdoptedFromMeta(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 200})
	if err := s.Append([]netflow.Record{keptRecord(1, 1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened without -segment-bytes, the store keeps its own rotation
	// size: a handful of small batches must still rotate segments.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for i := 0; i < 10; i++ {
		if err := r.Append([]netflow.Record{keptRecord(i%12, i, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if m := r.Metrics(); m.Segments < 3 {
		t.Fatalf("segments = %d after reopen; meta segment size not adopted", m.Segments)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append([]netflow.Record{keptRecord(i, i, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := walFiles(t, dir)

	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Append([]netflow.Record{keptRecord(1, 1, 1)}); err == nil {
		t.Fatal("append on a read-only store must fail")
	}
	if err := r.Checkpoint(); err == nil {
		t.Fatal("checkpoint on a read-only store must fail")
	}
	res, err := r.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot().Census.Kept != 5 {
		t.Fatalf("read-only query kept %d, want 5", res.Snapshot().Census.Kept)
	}
	// No new active segment was created.
	if after := walFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("read-only open changed the WAL: %v -> %v", before, after)
	}

	// Read-only open of a directory that is not a store fails.
	if _, err := Open(t.TempDir(), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of an empty dir must fail")
	}
}

func TestEmptyCheckpointOnlyRefreshesClock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Frames != 0 || m.Checkpoints != 0 {
		t.Fatalf("empty checkpoint wrote state: %+v", m)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy must fail")
	}
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(string(pol))
		if err != nil || got != pol {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", pol, got, err)
		}
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: pol})
		if err := s.Append([]netflow.Record{keptRecord(1, 1, 100)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentAppendCheckpointQuery hammers the three lock domains —
// Append (mu), Checkpoint (ckptMu + phased mu), Query/Snapshot (mu +
// lock-free frame loads) — concurrently, then verifies nothing was lost
// or double-counted. Run under -race via `make race`.
func TestConcurrentAppendCheckpointQuery(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SegmentBytes: 2048, MaxFrames: 3})
	const (
		writers    = 4
		perWriter  = 200
		totalKept  = writers * perWriter
		ckptRounds = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append([]netflow.Record{keptRecord(i%40, w*perWriter+i, 100)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < ckptRounds; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := s.Query(time.Time{}, time.Time{}); err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if _, err := s.SnapshotResult(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot().Census.Kept != totalKept {
		t.Fatalf("kept %d records, want %d", res.Snapshot().Census.Kept, totalKept)
	}
	if snap := s.Snapshot(); snap.Census.Kept != totalKept {
		t.Fatalf("snapshot kept %d records, want %d", snap.Census.Kept, totalKept)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("always_group_close_midflight", testGroupCommitCloseMidFlight)
}

// testGroupCommitCloseMidFlight adds the fourth lock domain — syncMu,
// the fsync that runs outside mu — to the hammering: group commits at
// SyncAlways race Flush, Checkpoint, Query and tiny-segment rotations,
// and Close lands while all of them are in flight. A committer that
// captured a segment fd under mu must never sync it closed (every close
// happens under syncMu after a sync that covers the waiters), so the
// only error anyone may see is the store reporting itself closed; what
// AppendGroup acknowledged is exactly what a reopen finds; and skipping
// covered positions never costs an extra fsync.
func testGroupCommitCloseMidFlight(t *testing.T) {
	const (
		writers   = 4
		perWriter = 400
		perGroup  = 3
	)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, Options{Sync: SyncAlways, SegmentBytes: 2048, MaxFrames: 3, Metrics: reg})
	var acked, commits, halfway atomic.Int64
	closedOrNil := func(op string, err error) bool {
		if err != nil && err.Error() != "store: closed" {
			t.Errorf("%s: %v", op, err)
		}
		return err == nil
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				group := make([][]netflow.Record, perGroup)
				for g := range group {
					group[g] = []netflow.Record{keptRecord(i%40, (w*perWriter+i)*perGroup+g, 100)}
				}
				commits.Add(1)
				if !closedOrNil("append group", s.AppendGroup(group)) {
					return
				}
				acked.Add(perGroup)
				if i == perWriter/2 {
					halfway.Add(1)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	background := func(op func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op() {
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	background(func() bool {
		commits.Add(1)
		return closedOrNil("flush", s.Flush())
	})
	background(func() bool { return closedOrNil("checkpoint", s.Checkpoint()) })
	background(func() bool {
		_, err := s.Query(time.Time{}, time.Time{})
		_ = s.Snapshot()
		return closedOrNil("query", err)
	})
	// Close once every writer is half done: all of them are mid-stream.
	for halfway.Load() < writers && !t.Failed() {
		runtime.Gosched()
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close mid-flight: %v", err)
	}
	close(done)
	wg.Wait()

	if fsyncs := s.om.fsyncSeconds.Count(); fsyncs == 0 || int64(fsyncs) > commits.Load() {
		t.Fatalf("%d policy fsyncs for %d commits and flushes", fsyncs, commits.Load())
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := int64(r.Snapshot().Census.Kept); got != acked.Load() {
		t.Fatalf("reopen finds %d records, %d were acknowledged", got, acked.Load())
	}
}

// walFiles lists the WAL segment paths in dir, sorted.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestCompactionPreservesHoursBeyondWindow pins the archival contract:
// frame compaction must never evict hourly bins, even once the folded
// pair spans more hours than the live sliding window (inevitable in a
// capture that outlives WindowHours). The merged frame persists its own
// widened window, a full-history query serves every hour ever
// checkpointed, and recovery accepts the wide frames while the live
// snapshot stays bounded by the live window.
func TestCompactionPreservesHoursBeyondWindow(t *testing.T) {
	dir := t.TempDir()
	cfg := streaming.Config{WindowHours: 4, TopK: 5}
	const hours = 12 // 3x the window
	s := mustOpen(t, dir, Options{Analytics: cfg, MaxFrames: 2})
	for h := 0; h < hours; h++ {
		if err := s.Append([]netflow.Record{keptRecord(h, h, 100)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Frames > 2 || m.CompactedFrames == 0 {
		t.Fatalf("compaction did not bound the frames: %+v", m)
	}

	check := func(s *Store) {
		t.Helper()
		res, err := s.Query(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Snapshot()
		if snap.SeriesStart != 0 || len(snap.Hours) != hours {
			t.Fatalf("query window [%d +%d], want [0 +%d]", snap.SeriesStart, len(snap.Hours), hours)
		}
		for _, p := range snap.Hours {
			if p.Flows != 1 {
				t.Fatalf("hour %d holds %v flows, want 1 (compaction evicted bins)", p.Hour, p.Flows)
			}
		}
		if snap.Late != 0 || snap.Census.Kept != hours {
			t.Fatalf("late %d kept %d, want 0 and %d", snap.Late, snap.Census.Kept, hours)
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{Analytics: cfg})
	defer r.Close()
	check(r)
	// The live view keeps sliding-window semantics: only the last
	// WindowHours hours, with the evicted overflow dropped silently (not
	// re-counted as late), exactly as an uninterrupted run would show.
	if snap := r.Snapshot(); snap.SeriesStart != hours-cfg.WindowHours || len(snap.Hours) != cfg.WindowHours || snap.Late != 0 {
		t.Fatalf("recovered live window [%d +%d] late %d, want [%d +%d] late 0",
			snap.SeriesStart, len(snap.Hours), snap.Late, hours-cfg.WindowHours, cfg.WindowHours)
	}
}

// TestCheckpointPreservesBurstBeyondWindow pins the checkpoint-layer
// half of the archival contract: when a burst ingests more data-hours
// than the live window between two checkpoints (a replayed capture can
// push weeks of simulated time in seconds), the tail must not evict —
// the single frame the checkpoint writes authorizes deleting the WAL
// that durably held those hours.
func TestCheckpointPreservesBurstBeyondWindow(t *testing.T) {
	dir := t.TempDir()
	cfg := streaming.Config{WindowHours: 4, TopK: 5}
	const hours = 12 // 3x the window, zero intervening checkpoints
	s := mustOpen(t, dir, Options{Analytics: cfg})
	for h := 0; h < hours; h++ {
		if err := s.Append([]netflow.Record{keptRecord(h, h, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Frames != 1 || m.Segments != 1 {
		t.Fatalf("after the one checkpoint: %+v", m)
	}

	check := func(s *Store) {
		t.Helper()
		res, err := s.Query(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Snapshot()
		if snap.SeriesStart != 0 || len(snap.Hours) != hours {
			t.Fatalf("query window [%d +%d], want [0 +%d]", snap.SeriesStart, len(snap.Hours), hours)
		}
		for _, p := range snap.Hours {
			if p.Flows != 1 {
				t.Fatalf("hour %d holds %v flows, want 1 (checkpoint evicted the burst's head)", p.Hour, p.Flows)
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Analytics: cfg})
	defer r.Close()
	check(r)
	if snap := r.Snapshot(); snap.SeriesStart != hours-cfg.WindowHours || len(snap.Hours) != cfg.WindowHours {
		t.Fatalf("recovered live window [%d +%d], want [%d +%d]",
			snap.SeriesStart, len(snap.Hours), hours-cfg.WindowHours, cfg.WindowHours)
	}
}

// TestForgedTimestampDoesNotBrickStore pins the end-to-end consequence
// of the plausibility cap: a record forged decades past Origin is
// counted Late, the checkpoint frame stays loadable, and the store
// reopens — instead of persisting an archive window so wide that every
// later frame read (and therefore Open) rejects it.
func TestForgedTimestampDoesNotBrickStore(t *testing.T) {
	dir := t.TempDir()
	cfg := streaming.Config{WindowHours: 4, TopK: 5}
	s := mustOpen(t, dir, Options{Analytics: cfg})
	if err := s.Append([]netflow.Record{
		keptRecord(0, 1, 100),
		keptRecord(21*366*24, 2, 100), // past streaming.MaxWindowHours
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{Analytics: cfg})
	defer r.Close()
	res, err := r.Query(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	if snap.Late != 1 {
		t.Fatalf("late = %d, want 1 (the forged record)", snap.Late)
	}
	if len(snap.Hours) != 1 || snap.Hours[0].Hour != 0 || snap.Hours[0].Flows != 1 {
		t.Fatalf("recovered window disturbed: %+v", snap.Hours)
	}
}

// TestWatermarkSurvivesCleanRestart reads store_watermark_timestamp_seconds
// across a checkpoint, a clean close and a reopen. In the tail and after
// the checkpoint it is the newest record's start; after the reopen, with
// every record in a frame, it is the start of that record's hour (frames
// record hours), not 0; and a record the reopen replays from the WAL
// raises it to that record's start again.
func TestWatermarkSurvivesCleanRestart(t *testing.T) {
	dir := t.TempDir()
	watermark := func(reg *obs.Registry) float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		exp, _ := obs.Lint(sb.String())
		v, ok := exp.Value("store_watermark_timestamp_seconds", "")
		if !ok {
			t.Fatal("no store_watermark_timestamp_seconds")
		}
		return v
	}
	seconds := func(at time.Time) float64 { return float64(at.UnixNano()) / 1e9 }
	open := func() (*Store, *obs.Registry) {
		reg := obs.NewRegistry()
		return mustOpen(t, dir, Options{Metrics: reg}), reg
	}

	s, reg := open()
	rec := keptRecord(50, 1, 100)
	rec.First = rec.First.Add(20 * time.Minute)
	if err := s.Append([]netflow.Record{keptRecord(10, 2, 100), rec}); err != nil {
		t.Fatal(err)
	}
	if got := watermark(reg); got != seconds(rec.First) {
		t.Fatalf("in the tail: watermark %v, want %v", got, seconds(rec.First))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := watermark(reg); got != seconds(rec.First) {
		t.Fatalf("after a checkpoint: watermark %v, want %v", got, seconds(rec.First))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, reg = open()
	if got, want := watermark(reg), seconds(entime.StudyStart.Add(50*time.Hour)); got != want {
		t.Fatalf("after a reopen: watermark %v, want %v, the start of the newest frame hour", got, want)
	}
	late := keptRecord(51, 3, 100)
	if err := s.Append([]netflow.Record{late}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, reg = open()
	defer s.Close()
	if got := watermark(reg); got != seconds(late.First) {
		t.Fatalf("after a reopen that replays the WAL: watermark %v, want %v", got, seconds(late.First))
	}
}

// TestFailedCheckpointKeepsTheTail makes a checkpoint's frame write fail —
// a directory sits where its temp file goes — after the tail was frozen
// for it. The frozen state folds back into the tail: every answer and its
// Version are what they were before, and the tail counts every record.
// Once the write can succeed, the next checkpoint commits one frame
// holding all of them, and a read-only reopen replays no WAL and answers
// the same bytes.
func TestFailedCheckpointKeepsTheTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Analytics: locatingConfig(t, 20), Sync: SyncNever})
	defer s.Close()
	var n uint64
	appendHours := func(lo, hi int) {
		for h := lo; h < hi; h++ {
			batch := []netflow.Record{keptRecord(h, h%30<<8, 100), keptRecord(h, (h+7)%30<<8, 200), droppedRecord(h, h)}
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			n += uint64(len(batch))
		}
	}
	appendHours(0, 20)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n = 0
	appendHours(30, 60)

	ranges := [][2]time.Time{{}, {at(10), at(40)}, {at(0), at(20)}, {at(45), {}}}
	answers := func(s *Store) (bodies []string, versions []uint64) {
		snap, err := s.SnapshotResult()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, answerOf(t, snap))
		for _, r := range ranges {
			for _, res := range []tier.Resolution{tier.ResolutionHour, tier.ResolutionDay} {
				q, err := s.QueryResolution(r[0], r[1], res)
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, answerOf(t, q))
			}
			versions = append(versions, s.Version(r[0], r[1]))
		}
		return bodies, versions
	}
	wantBodies, wantVersions := answers(s)
	frames := s.Metrics().Frames

	blocker := framePath(dir, tier.LevelCheckpoint, s.nextFrameSeq) + ".tmp"
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("a checkpoint whose frame could not be written returned no error")
	}
	bodies, versions := answers(s)
	if !reflect.DeepEqual(bodies, wantBodies) || !reflect.DeepEqual(versions, wantVersions) {
		t.Fatal("the failed checkpoint changed an answer or its Version")
	}
	if m := s.Metrics(); m.TailRecords != n || m.Frames != frames {
		t.Fatalf("after the failed checkpoint: %d tail records in %d frames, want %d in %d", m.TailRecords, m.Frames, n, frames)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.TailRecords != 0 || m.Frames != frames+1 || s.levels[tier.LevelCheckpoint][frames].Records != n {
		t.Fatalf("the next checkpoint left %d tail records and %d frames, the newest holding %d records; want 0, %d and %d",
			m.TailRecords, m.Frames, s.levels[tier.LevelCheckpoint][m.Frames-1].Records, frames+1, n)
	}
	wantBodies, _ = answers(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, dir, Options{Analytics: locatingConfig(t, 20), ReadOnly: true})
	defer ro.Close()
	if m := ro.Metrics(); m.RecoveredWALRecords != 0 {
		t.Fatalf("the reopen replayed %d WAL records, want none", m.RecoveredWALRecords)
	}
	if bodies, _ := answers(ro); !reflect.DeepEqual(bodies, wantBodies) {
		t.Fatal("the read-only reopen answers differently")
	}
}
