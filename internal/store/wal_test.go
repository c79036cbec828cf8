package store

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
)

// faultyFile is a segment file whose next calls fail as armed. A failing
// Write first lets `short` bytes through, the way a disk that fills up
// mid-write does.
type faultyFile struct {
	segFile
	failWrite, failTruncate, failSeek, failSync error
	short                                       int
	syncs                                       int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.failWrite == nil {
		return f.segFile.Write(p)
	}
	n, _ := f.segFile.Write(p[:min(f.short, len(p))])
	return n, f.failWrite
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate != nil {
		return f.failTruncate
	}
	return f.segFile.Truncate(size)
}

func (f *faultyFile) Seek(off int64, whence int) (int64, error) {
	if f.failSeek != nil {
		return 0, f.failSeek
	}
	return f.segFile.Seek(off, whence)
}

func (f *faultyFile) Sync() error {
	f.syncs++
	if err := f.failSync; err != nil {
		f.failSync = nil // one failure, then the device is back
		return err
	}
	return f.segFile.Sync()
}

var errDisk = errors.New("injected: no space left on device")

// breakActive puts a faultyFile around the store's active segment.
func breakActive(s *Store) *faultyFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &faultyFile{segFile: s.wal.active}
	s.wal.active = f
	return f
}

// walkedBatches returns what WalkWAL reads back, as canonical payloads.
func walkedBatches(t *testing.T, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	if err := WalkWAL(dir, func(b []netflow.Record) error {
		out = append(out, appendBatchPayload(nil, b))
		return nil
	}); err != nil {
		t.Fatalf("WalkWAL: %v", err)
	}
	return out
}

func payloads(batches ...[]netflow.Record) [][]byte {
	var out [][]byte
	for _, b := range batches {
		out = append(out, appendBatchPayload(nil, b))
	}
	return out
}

func equalPayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// A failed write rolls the whole group back: the segment still parses,
// and the next append lands at the record boundary, not behind a hole.
func TestWriteErrorRollsBackWholeGroup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	b1 := []netflow.Record{keptRecord(0, 1, 100)}
	b2 := []netflow.Record{keptRecord(1, 2, 200), keptRecord(1, 3, 300)}
	b3 := []netflow.Record{keptRecord(2, 4, 400)}
	b4 := []netflow.Record{keptRecord(3, 5, 500)}
	if err := s.Append(b1); err != nil {
		t.Fatal(err)
	}
	f := breakActive(s)
	f.failWrite, f.short = errDisk, 40 // less than one frame: tears the group's first record
	if err := s.AppendGroup([][]netflow.Record{b2, b3}); !errors.Is(err, errDisk) {
		t.Fatalf("AppendGroup on a failing disk: %v, want the write error", err)
	}
	if got := walkedBatches(t, dir); !equalPayloads(got, payloads(b1)) {
		t.Fatalf("after the rollback WalkWAL reads %d batches, want the one acknowledged", len(got))
	}
	f.failWrite = nil
	if err := s.Append(b4); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walkedBatches(t, dir); !equalPayloads(got, payloads(b1, b4)) {
		t.Fatalf("WalkWAL reads %d batches, want b1 then b4 with no hole between them", len(got))
	}
	seg, err := os.ReadFile(walFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecordFrame(appendRecordFrame(seg[:segHeaderLen:segHeaderLen], recTypeBatch, payloads(b1)[0]), recTypeBatch, payloads(b4)[0])
	if !bytes.Equal(seg, want) {
		t.Fatalf("segment is %d bytes, want exactly header + b1 + b4 (%d)", len(seg), len(want))
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if m := r.Metrics(); m.RecoveredWALRecords != 2 || m.TruncatedBytes != 0 {
		t.Fatalf("recovery replayed %d records and truncated %d bytes, want 2 and 0", m.RecoveredWALRecords, m.TruncatedBytes)
	}
}

// When the rollback itself fails the segment is sealed at its last intact
// record and the torn bytes are trimmed by path, so a crash before the
// next checkpoint still recovers: damage in a non-final segment would
// fail the whole Open.
func TestRollbackFailureSealsAndTrimsByPath(t *testing.T) {
	for name, arm := range map[string]func(*faultyFile){
		"truncate": func(f *faultyFile) { f.failTruncate = errDisk },
		"seek":     func(f *faultyFile) { f.failSeek = errDisk },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			b1 := []netflow.Record{keptRecord(0, 1, 100)}
			b2 := []netflow.Record{keptRecord(1, 2, 200)}
			b3 := []netflow.Record{keptRecord(2, 3, 300)}
			if err := s.Append(b1); err != nil {
				t.Fatal(err)
			}
			boundary := s.wal.activeOff
			f := breakActive(s)
			f.failWrite, f.short = errDisk, 25
			arm(f)
			if err := s.Append(b2); !errors.Is(err, errDisk) {
				t.Fatalf("Append on a failing disk: %v, want the write error", err)
			}
			if s.wal.active != nil || len(s.wal.sealed) != 1 {
				t.Fatalf("segment not sealed after a failed rollback (active %v, %d sealed)", s.wal.active, len(s.wal.sealed))
			}
			torn := walFiles(t, dir)[0]
			if st, err := os.Stat(torn); err != nil || st.Size() != boundary {
				t.Fatalf("sealed segment is %d bytes (%v), want it trimmed to the last record boundary %d", st.Size(), err, boundary)
			}
			if err := s.Append(b3); err != nil {
				t.Fatal(err)
			}
			if segs := walFiles(t, dir); len(segs) != 2 {
				t.Fatalf("the append after the seal did not start a fresh segment: %v", segs)
			}
			// No Close: what is on disk now is what a crash would leave.
			releaseDirLock(s.lock)
			r := mustOpen(t, dir, Options{})
			defer r.Close()
			if got := r.Metrics().RecoveredWALRecords; got != 2 {
				t.Fatalf("recovery replayed %d records, want the 2 acknowledged", got)
			}
		})
	}
}

// A failed policy fsync does not advance the durable position, so the
// next sync of that position goes to the device again.
func TestSyncErrorIsRetried(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	defer s.Close()
	f := breakActive(s)
	f.failSync = errDisk
	if err := s.Append([]netflow.Record{keptRecord(0, 1, 100)}); !errors.Is(err, errDisk) {
		t.Fatalf("Append under a failing fsync: %v, want the sync error", err)
	}
	if s.wal.durableSeq != 0 || s.wal.durableOff != 0 {
		t.Fatalf("durable position advanced to (%d, %d) by a failed fsync", s.wal.durableSeq, s.wal.durableOff)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 2 {
		t.Fatalf("%d fsyncs, want the failed one and its retry", f.syncs)
	}
	if s.wal.durableSeq != s.wal.activeSeq || s.wal.durableOff != s.wal.activeOff {
		t.Fatalf("durable position (%d, %d) after the retry, want the end of the log (%d, %d)",
			s.wal.durableSeq, s.wal.durableOff, s.wal.activeSeq, s.wal.activeOff)
	}
	if err := s.Flush(); err != nil || f.syncs != 2 {
		t.Fatalf("a flush with nothing new issued a sync (%d, %v)", f.syncs, err)
	}
}

// Availability over durability: a group the WAL refused is still folded
// and served, the caller gets the error (the pipeline counts it as a sink
// error, see ingest's TestGroupCommitAccounting), and the next checkpoint
// makes the group durable after all.
func TestFailingWALStillServesTheGroup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f := breakActive(s)
	f.failWrite = errDisk
	group := [][]netflow.Record{{keptRecord(0, 1, 100), keptRecord(0, 2, 200)}, {keptRecord(1, 3, 300)}}
	if err := s.AppendGroup(group); !errors.Is(err, errDisk) {
		t.Fatalf("AppendGroup on a failing disk: %v, want the write error", err)
	}
	if got := s.Snapshot().Census.Kept; got != 3 {
		t.Fatalf("snapshot shows %d kept records, want the 3 of the refused group", got)
	}
	if m := s.Metrics(); m.AppendedRecords != 3 || m.AppendedBatches != 2 || m.TailRecords != 3 {
		t.Fatalf("metrics after the refused group: %+v", m)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Snapshot().Census.Kept; got != 3 {
		t.Fatalf("reopened store has %d kept records, want the 3 the checkpoint folded", got)
	}
}

// A commit that fills its segment is made durable by the rotation's seal;
// the committer then finds its position covered and does not fsync.
func TestSealCoversTheCommitThatRotated(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways, SegmentBytes: 64, Metrics: obs.NewRegistry()})
	defer s.Close()
	f := breakActive(s)
	if err := s.Append([]netflow.Record{keptRecord(0, 1, 100), keptRecord(0, 2, 200)}); err != nil {
		t.Fatal(err)
	}
	if s.wal.activeSeq != 2 || len(s.wal.sealed) != 1 {
		t.Fatalf("the append did not rotate (active %d, %d sealed)", s.wal.activeSeq, len(s.wal.sealed))
	}
	if f.syncs != 1 {
		t.Fatalf("%d fsyncs of the sealed segment, want the seal's only", f.syncs)
	}
	if n := s.om.fsyncSeconds.Count(); n != 0 {
		t.Fatalf("%d policy fsyncs, want none: the seal covered the commit", n)
	}
}

// A rotation that cannot write the new segment's header leaves no file
// behind, and a header-short file found anyway — a crash between create
// and write leaves one — holds no acknowledged record and is skipped and
// removed wherever it sits. A full header that is wrong stays an error.
func TestHeaderShortSegmentIsSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1}) // every append rotates
	b1 := []netflow.Record{keptRecord(0, 1, 100)}
	b2 := []netflow.Record{keptRecord(1, 2, 200)}
	s.wal.create = func(path string) (segFile, error) {
		f, err := createSegFile(path)
		return &faultyFile{segFile: f, failWrite: errDisk, short: 7}, err
	}
	if err := s.Append(b1); !errors.Is(err, errDisk) {
		t.Fatalf("Append whose rotation fails: %v, want the header write error", err)
	}
	s.wal.create = createSegFile
	if err := s.Append(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the failed rotation left its segment file behind (%v)", err)
	}

	// The same state with the file still there, short of a header in two
	// ways, between the segments that hold b1 and b2.
	for _, stub := range [][]byte{{}, segMagic[:7]} {
		if err := os.WriteFile(segPath(dir, 2), stub, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := walkedBatches(t, dir); !equalPayloads(got, payloads(b1, b2)) {
			t.Fatalf("%d-byte segment: WalkWAL reads %d batches, want both", len(stub), len(got))
		}
		r := mustOpen(t, dir, Options{SegmentBytes: 1})
		if got := r.Metrics().RecoveredWALRecords; got != 2 {
			t.Fatalf("%d-byte segment: recovery replayed %d records, want both batches", len(stub), got)
		}
		if _, err := os.Stat(segPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%d-byte segment: recovery kept the file (%v)", len(stub), err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	wrong := append(append([]byte(nil), segMagic[:]...), make([]byte, 8)...) // seq 0, not 2
	if err := os.WriteFile(segPath(dir, 2), wrong, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Analytics: testConfig()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a full but wrong header: %v, want ErrCorrupt", err)
	}
}

// The seam the per-lane WAL and fault injection build on: wal.go knows
// segments and durability, not analytics, and Store holds no file but
// the dir lock.
func TestWALKnowsNoAnalytics(t *testing.T) {
	fset := token.NewFileSet()
	w, err := parser.ParseFile(fset, "wal.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range w.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); strings.HasSuffix(path, "internal/streaming") || strings.HasSuffix(path, "internal/tier") {
			t.Errorf("wal.go imports %s", path)
		}
	}
	st, err := parser.ParseFile(fset, "store.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(st, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Store" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			star, ok := field.Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "File" && (len(field.Names) != 1 || field.Names[0].Name != "lock") {
				t.Errorf("Store field %v is a *%s.File: segment files belong to wal", field.Names, sel.X)
			}
		}
		return false
	})
}
