package store

// The write-ahead log: segment files (a 16-byte header, then one
// internal/wire frame per appended batch), the active one appends go to
// and the sealed ones no checkpoint has folded yet. What knows the
// segment format, holds a segment's file or decides what is durable is
// here; the Store above it deals in batches and positions.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/wire"
)

// segMagic heads every WAL segment file, followed by the segment
// sequence number (8 bytes, big-endian).
var segMagic = [8]byte{'C', 'W', 'A', 'S', 'E', 'G', '0', '1'}

const segHeaderLen = 16

// segInfo is one WAL segment on disk.
type segInfo struct {
	seq  uint64
	path string
	size int64
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

// listSegments picks the segments out of a directory listing. os.ReadDir
// sorts by name and the fixed-width names sort by seq, so they come out
// in append order.
func listSegments(dir string, entries []os.DirEntry) ([]segInfo, error) {
	var segs []segInfo
	for _, e := range entries {
		if seq := matchSeq(e.Name(), "wal-", ".seg"); seq != nil {
			info, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			segs = append(segs, segInfo{seq: *seq, path: filepath.Join(dir, e.Name()), size: info.Size()})
		}
	}
	return segs, nil
}

// walkSegments is the one reader of the segment format. It hands every
// intact batch of segs (in append order, sizes as listed) to fn and
// returns the segments that hold any, at the size that parsed, plus the
// bytes beyond that. A file shorter than the header never held an
// acknowledged record (a rotation that failed, or died, before its first
// write) and is skipped wherever it sits. Other damage is forgiven only
// in the last segment that has a header, where it is the torn tail of a
// crash; before that it is an error (wrapping ErrTorn or ErrCorrupt).
// With repair set the discarded bytes are also trimmed from the files,
// and a file left with nothing is removed.
func walkSegments(segs []segInfo, repair bool, fn func([]netflow.Record) error) (kept []segInfo, discarded int64, err error) {
	last := len(segs) - 1
	for last >= 0 && segs[last].size < segHeaderLen {
		last--
	}
	for i, seg := range segs {
		good := 0
		if seg.size >= segHeaderLen {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				return nil, 0, fmt.Errorf("store: %w", err)
			}
			seg.size = int64(len(data))
			damage := fmt.Errorf("%w: segment header", ErrCorrupt)
			if len(data) >= segHeaderLen && [8]byte(data[:8]) == segMagic && binary.BigEndian.Uint64(data[8:16]) == seg.seq {
				good, damage = segHeaderLen, nil
			}
			for damage == nil && good < len(data) {
				batch, n, err := readBatch(data[good:])
				if err != nil {
					damage = err
					break
				}
				if err := fn(batch); err != nil {
					return nil, 0, err
				}
				good += n
			}
			if damage != nil && i != last {
				return nil, 0, fmt.Errorf("store: segment %s damaged at offset %d with later segments intact: %w", filepath.Base(seg.path), good, damage)
			}
		}
		if rest := seg.size - int64(good); rest > 0 || good == 0 {
			discarded += rest
			seg.size = int64(good)
			if repair {
				if err := trimSegment(seg); err != nil {
					return nil, 0, fmt.Errorf("store: %w", err)
				}
			}
		}
		if good > 0 {
			kept = append(kept, seg)
		}
	}
	return kept, discarded, nil
}

// trimSegment cuts the file to the size that parsed; nothing is no file.
func trimSegment(seg segInfo) error {
	if seg.size == 0 {
		return os.Remove(seg.path)
	}
	return os.Truncate(seg.path, seg.size)
}

// WalkWAL streams every intact batch in dir's WAL segments to fn in
// append order, tolerating a torn tail in the final segment (it stops
// there, like recovery, but never truncates). Tooling and the crash
// tests use it to inspect what survived on disk.
func WalkWAL(dir string, fn func(batch []netflow.Record) error) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	segs, err := listSegments(dir, entries)
	if err == nil {
		_, _, err = walkSegments(segs, false, fn)
	}
	return err
}

// segFile is what the log does to an open segment: *os.File, or a
// failing stand-in under test.
type segFile interface {
	io.WriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

func createSegFile(path string) (segFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil segFile
	}
	return f, nil
}

// walPos is the first off bytes of segment seq, with that segment's file
// when it was the active one (nil: no active segment, nothing to sync).
type walPos struct {
	f   segFile
	seq uint64
	off int64
}

// wal is an open log. Its owner calls every method but syncTo under one
// lock of its own (Store.mu); syncMu, taken after that lock and never
// before it, serializes fsyncs and closes of segment files so that
// syncTo can run outside the owner's lock.
type wal struct {
	dir    string
	opts   Options // SegmentBytes, Tracer, Events
	om     *storeObsMetrics
	create func(path string) (segFile, error)

	active    segFile
	activeSeq uint64
	activeOff int64
	sealed    []segInfo // not yet folded into a checkpoint
	bytes     int64     // on disk, sealed plus active
	truncated int64     // discarded by recovery
	nextSeq   uint64

	payloadBuf []byte
	recordBuf  []byte

	// syncMu guards the durable position: every segment below
	// durableSeq, and the first durableOff bytes of segment durableSeq,
	// are on stable storage. A committer whose position is already
	// covered skips its fsync. Segment files are closed only under
	// syncMu, after a sync that marks the whole segment durable, so a
	// committer that took its walPos under the owner's lock never syncs
	// a closed file.
	syncMu     sync.Mutex
	durableSeq uint64
	durableOff int64
}

// openWAL recovers the log from the listed segments: those at or below
// covered were folded into a checkpoint whose cleanup did not finish and
// are removed, the rest are walked into replay (trimming the torn tail a
// crash left) and become the sealed list, and a fresh active segment is
// started. A ReadOnly open changes no file and starts none.
func openWAL(dir string, opts Options, om *storeObsMetrics, segs []segInfo, covered uint64, replay func([]netflow.Record) error) (*wal, error) {
	w := &wal{dir: dir, opts: opts, om: om, create: createSegFile, nextSeq: 1}
	if n := len(segs); n > 0 {
		w.nextSeq = segs[n-1].seq + 1
	}
	for len(segs) > 0 && segs[0].seq <= covered {
		if !opts.ReadOnly {
			_ = os.Remove(segs[0].path)
		}
		segs = segs[1:]
	}
	var err error
	if w.sealed, w.truncated, err = walkSegments(segs, !opts.ReadOnly, replay); err != nil {
		return nil, err
	}
	for _, seg := range w.sealed {
		w.bytes += seg.size
	}
	if !opts.ReadOnly {
		if err := w.openSegment(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// openSegment starts a fresh active segment. A file whose header write
// failed is removed rather than left, header-less, among the segments
// recovery reads.
func (w *wal) openSegment() error {
	seq := w.nextSeq
	w.nextSeq++
	path := segPath(w.dir, seq)
	f, err := w.create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		_ = os.Remove(path) // recovery skips what a failed remove leaves
		return fmt.Errorf("store: %w", err)
	}
	w.active, w.activeSeq, w.activeOff = f, seq, segHeaderLen
	w.bytes += segHeaderLen
	return nil
}

// append writes one framed record per non-empty batch to the active
// segment with a single write and returns the position just past them,
// rotating afterwards once the segment has grown past SegmentBytes (the
// seal then covers the returned position). It recovers from earlier
// failures: a missing active segment (a rotation that hit transient
// ENOSPC) is reopened, and a failed write is rolled back to the last
// record boundary — the whole group — so the segment stays parseable. A
// momentary disk problem must never permanently disable persistence.
func (w *wal) append(batches [][]netflow.Record) (walPos, error) {
	if w.active == nil {
		if err := w.openSegment(); err != nil {
			return walPos{}, err
		}
	}
	w.recordBuf = w.recordBuf[:0]
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		w.payloadBuf = appendBatchPayload(w.payloadBuf[:0], b)
		w.recordBuf = wire.AppendFrame(w.recordBuf, recTypeBatch, w.payloadBuf)
	}
	if _, err := w.active.Write(w.recordBuf); err != nil {
		return walPos{}, w.rollback(err)
	}
	w.activeOff += int64(len(w.recordBuf))
	w.bytes += int64(len(w.recordBuf))
	pos := w.end()
	if w.activeOff >= w.opts.SegmentBytes {
		return pos, w.rotate()
	}
	return pos, nil
}

// rollback trims what a failed write left of its group and returns the
// error the append reports. Truncate trims the file but does NOT move
// the file offset — without the Seek, the next append would land past a
// zero-filled hole and recovery would discard everything after it as a
// torn tail.
func (w *wal) rollback(werr error) error {
	w.opts.Events.Record("wal_rollback", "WAL append failed, rolling back to last record boundary",
		obs.Int("segment_seq", int64(w.activeSeq)),
		obs.Int("offset", w.activeOff),
		obs.Str("err", werr.Error()))
	terr := w.active.Truncate(w.activeOff)
	if terr == nil {
		_, terr = w.active.Seek(w.activeOff, io.SeekStart)
	}
	if terr != nil {
		// Cannot roll back through the file: seal the segment at its last
		// intact record so the next append starts a fresh one rather than
		// appending unreachable records behind a torn one; the next
		// checkpoint sweeps the file away. Retry the truncate by path
		// after closing — leaving the torn bytes on disk would make a
		// crash before that checkpoint unrecoverable (recovery treats
		// damage in a non-final segment as corruption and fails the whole
		// Open).
		_ = w.sealActive(true) // the write error below is what the caller gets
		if perr := os.Truncate(segPath(w.dir, w.activeSeq), w.activeOff); perr != nil {
			return fmt.Errorf("store: WAL append: %w (torn bytes remain: rollback failed %v, truncate failed %v)", werr, terr, perr)
		}
	}
	return fmt.Errorf("store: WAL append: %w", werr)
}

// end is the position just past the last record written.
func (w *wal) end() walPos {
	return walPos{f: w.active, seq: w.activeSeq, off: w.activeOff}
}

// syncTo makes the log durable up to pos, unless an earlier fsync or a
// seal already covered it. It runs outside the owner's lock: other
// committers write and fold, and readers read, while the disk works. The
// timing and the store.fsync background trace (tail-sampled: a device
// whose sync latency degrades shows up as slow traces) wrap exactly the
// Sync call.
func (w *wal) syncTo(pos walPos) error {
	if pos.f == nil {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if pos.seq < w.durableSeq || pos.seq == w.durableSeq && pos.off <= w.durableOff {
		return nil
	}
	_, sp := w.opts.Tracer.StartTrace(context.Background(), "store.fsync", 0)
	var t0 time.Time
	if w.om.fsyncSeconds != nil {
		t0 = time.Now()
	}
	err := pos.f.Sync()
	if w.om.fsyncSeconds != nil {
		w.om.fsyncSeconds.ObserveSince(t0)
	}
	sp.Fail(err)
	sp.End()
	if err == nil {
		w.durableSeq, w.durableOff = pos.seq, pos.off
	}
	return err
}

// sealActive syncs and closes the active segment's file and lists the
// segment as sealed. Sync and close happen under syncMu and a successful
// sync marks the whole segment durable, so a committer still waiting to
// sync a position in it finds that position covered instead of a closed
// file. A failed sync leaves the segment active for the caller to retry,
// unless force is set (callers with no later chance: close, and the
// rollback abandoning a torn segment).
func (w *wal) sealActive(force bool) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	err := w.active.Sync()
	if err != nil && !force {
		return err
	}
	if err == nil {
		w.durableSeq, w.durableOff = w.activeSeq+1, 0
	}
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	w.active = nil
	w.sealed = append(w.sealed, segInfo{seq: w.activeSeq, path: segPath(w.dir, w.activeSeq), size: w.activeOff})
	return err
}

// rotate seals the active segment and starts the next one.
func (w *wal) rotate() error {
	if err := w.sealActive(false); err != nil {
		return fmt.Errorf("store: sealing segment: %w", err)
	}
	return w.openSegment()
}

// seal ends the log at a segment boundary for a checkpoint and lists the
// sealed segments: what the checkpoint's frame covers and, once that
// frame is durable, hands to drop. A failed rotation can leave no active
// segment; one is opened first, so the frame always covers a concrete
// position (the last listed segment's seq and size).
func (w *wal) seal() ([]segInfo, error) {
	if w.active == nil {
		if err := w.openSegment(); err != nil {
			return nil, err
		}
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return append([]segInfo(nil), w.sealed...), nil
}

// drop forgets the segments a seal listed, the oldest sealed ones; the
// caller removes their files once outside its lock.
func (w *wal) drop(segs []segInfo) {
	w.sealed = append(w.sealed[:0], w.sealed[len(segs):]...)
	for _, seg := range segs {
		w.bytes -= seg.size
	}
}

// stats reports the live segment files (sealed plus active), their bytes
// on disk and the bytes recovery discarded.
func (w *wal) stats() (segments int, bytes, truncated int64) {
	segments = len(w.sealed)
	if w.active != nil {
		segments++
	}
	return segments, w.bytes, w.truncated
}

// close syncs and closes the active segment, if there is one.
func (w *wal) close() error {
	if w.active == nil {
		return nil
	}
	return w.sealActive(true)
}
