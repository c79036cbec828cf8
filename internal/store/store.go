// Package store is the collector's durable state subsystem: an
// append-only, segment-based write-ahead log of ingested flow-record
// batches plus periodic checkpoint frames of folded streaming analytics
// state, with crash recovery and a historical time-range query engine on
// top.
//
// The paper's vantage point ran for weeks; the live collector
// (internal/ingest + internal/streaming) kept every aggregate in RAM and
// forgot it on restart. The store closes that gap:
//
//   - Every batch the pipeline ingests is appended to the active WAL
//     segment (write-through to the OS, fsync per policy) and folded into
//     an in-memory tail shard that mirrors exactly the un-checkpointed
//     WAL content.
//   - Checkpoint seals the active segment, persists the tail shard as a
//     checkpoint frame (full-fidelity streaming state, CRC-protected),
//     folds the sealed segments away, and starts a fresh segment — the
//     compaction step that keeps both the WAL and the tail bounded.
//   - Open replays the surviving frames and the WAL tail in order, so a
//     restarted collector resumes with byte-identical aggregates, and a
//     torn record at the end of the last segment (the SIGKILL case) is
//     truncated, never misread.
//   - Query merges the checkpoint frames overlapping a time range into
//     one snapshot — the longitudinal Figure-2/launch-spike view over
//     simulated weeks that a single in-memory window could never serve.
//
// Aggregation is commutative (see internal/streaming), so the recovered
// state does not depend on how batches interleaved across pipeline
// workers, and query results do not depend on where checkpoints happened
// to fall.
package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
	"cwatrace/internal/wire"
)

// segMagic heads every WAL segment file, followed by the segment
// sequence number (8 bytes, big-endian).
var segMagic = [8]byte{'C', 'W', 'A', 'S', 'E', 'G', '0', '1'}

const segHeaderLen = 16

// metaName is the store's configuration descriptor inside the data dir.
const metaName = "meta.json"

// SyncPolicy selects when WAL appends reach stable storage. Appends are
// always written through to the OS immediately (surviving a process
// kill); the policy only governs fsync, i.e. machine-crash durability.
type SyncPolicy string

const (
	// SyncAlways fsyncs the active segment after every append.
	SyncAlways SyncPolicy = "always"
	// SyncInterval leaves periodic fsync to the caller's flush hook (the
	// ingest pipeline's FlushInterval calls Store.Flush); the store
	// itself syncs only on seal, checkpoint and close.
	SyncInterval SyncPolicy = "interval"
	// SyncNever syncs only on seal, checkpoint and close.
	SyncNever SyncPolicy = "never"
)

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

// Options parameterizes Open.
type Options struct {
	// Analytics configures the streaming aggregation the store folds.
	// Zero fields are adopted from the store's meta file when one exists
	// (so readers need not repeat the collector's flags); explicitly set
	// values conflicting with the meta file are an error for the
	// state-affecting fields (Origin, WindowHours, PrefixBits).
	Analytics streaming.Config
	// SegmentBytes rotates the active WAL segment once it grows past
	// this size (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// MaxFrames bounds the checkpoint-frame count: past it, the oldest
	// adjacent frames are folded together (default 64).
	MaxFrames int
	// ReadOnly opens the store for historical queries only: no WAL
	// truncation, no new segment, Append/Checkpoint fail.
	ReadOnly bool
	// Tier enables long-horizon folding: checkpoints additionally fold
	// closed day runs of checkpoint frames into day tier frames, and
	// closed weeks of day frames into week frames (see internal/tier).
	// Existing tier frames are always loaded and served regardless — the
	// flag gates only the production of new ones.
	Tier bool
	// Metrics, when set, registers the store's telemetry on the registry
	// (see metrics.go for the catalogue). Nil runs uninstrumented.
	Metrics *obs.Registry
	// Tracer, when set, records background traces for the store's I/O
	// operations: one per checkpoint fold (with compaction folds as
	// child spans) and one per policy-driven fsync. Nil disables.
	Tracer *obs.Tracer
	// Events, when set, receives checkpoint_committed and wal_rollback
	// flight-recorder events. Nil disables.
	Events *obs.EventRing
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Sync == "" {
		o.Sync = SyncInterval
	}
	if o.MaxFrames <= 0 {
		o.MaxFrames = 64
	}
	return o
}

// Metrics is a point-in-time view of the store gauges and counters.
type Metrics struct {
	// Segments counts live WAL segment files (sealed-but-unfolded plus
	// the active one); WALBytes is their total size on disk.
	Segments int   `json:"segments"`
	WALBytes int64 `json:"wal_bytes"`
	// Frames counts checkpoint frames; FrameRecords is the census total
	// folded into them.
	Frames       int    `json:"frames"`
	FrameRecords uint64 `json:"frame_records"`
	// TailRecords counts records appended since the last checkpoint (the
	// WAL replay cost of a crash right now).
	TailRecords uint64 `json:"tail_records"`
	// AppendedRecords/AppendedBatches count Append traffic this process.
	AppendedRecords uint64 `json:"appended_records"`
	AppendedBatches uint64 `json:"appended_batches"`
	// RecoveredFrames and RecoveredWALRecords describe what Open rebuilt;
	// TruncatedBytes is the torn WAL tail discarded during recovery.
	RecoveredFrames     int    `json:"recovered_frames"`
	RecoveredWALRecords uint64 `json:"recovered_wal_records"`
	TruncatedBytes      int64  `json:"truncated_bytes"`
	// Checkpoints and CompactedFrames count folding activity;
	// LastCheckpoint stamps the newest frame (or the open time of a
	// store that has none).
	Checkpoints     uint64    `json:"checkpoints"`
	CompactedFrames uint64    `json:"compacted_frames"`
	LastCheckpoint  time.Time `json:"last_checkpoint"`
	// Long-horizon tier state: live frames per level and folds this
	// process (omitted while zero — the fields postdate the v1 schema).
	TierFramesDay  int    `json:"tier_frames_day,omitempty"`
	TierFramesWeek int    `json:"tier_frames_week,omitempty"`
	TierFolds      uint64 `json:"tier_folds,omitempty"`
}

// frameMeta is one live checkpoint frame (metadata only; the decoded
// state lives in the frame cache, or on disk until a read loads it).
type frameMeta struct {
	frameInfo
	path string
}

// segInfo is one sealed, not-yet-folded WAL segment.
type segInfo struct {
	seq  uint64
	path string
	size int64
}

// metaFile persists the resolved analytics configuration so restarts and
// read-only opens agree on the state-affecting parameters.
type metaFile struct {
	Version       int       `json:"version"`
	Origin        time.Time `json:"origin"`
	WindowHours   int       `json:"window_hours"`
	PrefixBits    int       `json:"prefix_bits"`
	TopK          int       `json:"topk"`
	SpikeFactor   float64   `json:"spike_factor"`
	SpikeHistory  int       `json:"spike_history"`
	SpikeMinFlows float64   `json:"spike_min_flows"`
	SegmentBytes  int64     `json:"segment_bytes"`
}

// Store is an open durable state store. All methods are safe for
// concurrent use; mu serializes the WAL and in-memory state (the hot
// Append path), ckptMu serializes whole checkpoints so their heavy I/O
// can run outside mu without two folds interleaving, and syncMu
// serializes fsyncs and closes of segment fds so the policy fsync can
// run outside mu. Lock order: ckptMu → mu → syncMu.
type Store struct {
	mu     sync.Mutex
	ckptMu sync.Mutex
	dir    string
	opts   Options
	cfg    streaming.Config

	frames       []frameMeta // sorted by BaseSeg
	base         *streaming.Analytics
	tail         *streaming.Analytics
	tailRecords  uint64
	frameRecords uint64

	// foldingTail is the swapped-out tail of an in-flight checkpoint
	// (chronologically between base and tail). Snapshot and Query merge
	// it so a fold in progress never makes records transiently invisible.
	// Reads are safe: the checkpoint only reads it while it is set.
	foldingTail    *streaming.Analytics
	foldingRecords uint64

	// lock is the flocked data-dir LOCK file of a writable open (nil when
	// ReadOnly); see lock.go.
	lock *os.File

	active    *os.File
	activeSeq uint64
	activeOff int64
	sealed    []segInfo
	walBytes  int64

	nextSegSeq   uint64
	nextFrameSeq uint64

	payloadBuf []byte
	recordBuf  []byte

	// syncMu guards the durable WAL position: every segment below
	// durableSeq, and the first durableOff bytes of segment durableSeq,
	// are on stable storage. A committer whose position is already
	// covered skips its fsync. Segment fds are closed only under syncMu,
	// after a sync that marks the whole segment durable, so a committer
	// that captured an fd under mu never syncs it closed.
	syncMu     sync.Mutex
	durableSeq uint64
	durableOff int64

	appendedRecords uint64
	appendedBatches uint64
	recoveredWAL    uint64
	recoveredFrames int
	truncatedBytes  int64
	checkpoints     uint64
	compacted       uint64
	lastCheckpoint  time.Time

	// Generation counters feeding Version (the API layer's ETag source).
	// boot salts every token with this process's open, so validators from
	// a previous run can never alias a post-restart state; ckptGen bumps
	// whenever the frame set changes (checkpoint commit, compaction),
	// tailGen whenever an Append lands in the live tail.
	boot    uint64
	ckptGen uint64
	tailGen uint64

	// Long-horizon tier frames per level (sorted by BaseSeg, under mu)
	// and the decoded-frame cache (tier files are immutable; the cache
	// is keyed by Seq, which is unique across levels). Frames enter it
	// through cacheTierFrame, resolved against districts, so a query
	// folds their district rows by index.
	tierDay       []tier.FrameMeta
	tierWeek      []tier.FrameMeta
	tierCache     sync.Map
	districts     *tier.DistrictTable
	tierFoldsDay  uint64
	tierFoldsWeek uint64

	// Decoded checkpoint frames by frame seq (see framecache.go): seeded
	// by Open, dropped when compaction retires a frame, pruned to the
	// registered set at every checkpoint.
	frameCache *frameCache

	om storeObsMetrics

	closed bool
}

// newTail builds a tail shard. Tails run in archive mode: the hourly
// ring grows instead of evicting, because a checkpoint frame must hold
// *every* hour of the WAL interval whose deletion it authorizes — a
// burst that ingests more data-hours than the live window between two
// checkpoints must not lose its head. Memory stays bounded by the
// checkpoint cadence; the live sliding-window view is re-imposed when
// Snapshot merges at the live window.
func (s *Store) newTail() *streaming.Analytics {
	cfg := s.cfg
	cfg.Archive = true
	return streaming.New(cfg)
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016d.ck", seq))
}

// Open opens (or creates) the store in dir and runs crash recovery:
// checkpoint frames are merged into the in-memory base state, the WAL
// tail beyond the last durable checkpoint is replayed into the tail
// shard, a torn record at the end of the last segment is truncated, and
// (unless ReadOnly) a fresh active segment is started.
func Open(dir string, opts Options) (*Store, error) {
	segBytesSet := opts.SegmentBytes > 0
	opts = opts.withDefaults()
	var lock *os.File
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		var err error
		if lock, err = acquireDirLock(dir); err != nil {
			return nil, err
		}
	}
	opened := false
	defer func() {
		if !opened {
			releaseDirLock(lock)
		}
	}()

	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta != nil && !segBytesSet && meta.SegmentBytes > 0 {
		// Like the analytics fields, the rotation size persists: a
		// restart without -segment-bytes keeps the store's own setting.
		opts.SegmentBytes = meta.SegmentBytes
	}
	cfg, err := resolveConfig(opts.Analytics, meta)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		cfg:  cfg,
		base: streaming.New(cfg),
		boot: uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32,

		frameCache: newFrameCache(frameCacheBudget),
		districts:  tier.NewDistrictTable(),
	}
	s.tail = s.newTail()
	if meta == nil {
		if opts.ReadOnly {
			return nil, fmt.Errorf("store: %s has no %s (not a store, or never initialized)", dir, metaName)
		}
		if err := s.writeMeta(); err != nil {
			return nil, err
		}
	}

	segs, ckpts, tiers, err := s.scanDir()
	if err != nil {
		return nil, err
	}
	covered, err := s.loadFrames(ckpts)
	if err != nil {
		return nil, err
	}
	if err := s.loadTierFrames(tiers); err != nil {
		return nil, err
	}
	if err := s.replayWAL(segs, covered); err != nil {
		return nil, err
	}

	if s.nextFrameSeq == 0 {
		s.nextFrameSeq = 1
	}
	if s.nextSegSeq == 0 {
		s.nextSegSeq = 1
	}
	if s.lastCheckpoint.IsZero() {
		s.lastCheckpoint = time.Now()
	}
	if !opts.ReadOnly {
		if err := s.openSegmentLocked(); err != nil {
			return nil, err
		}
	}
	s.lock = lock
	s.om.register(opts.Metrics)
	registerStoreFuncs(opts.Metrics, s)
	opened = true
	return s, nil
}

// readMeta loads meta.json, returning nil when the file does not exist.
func readMeta(dir string) (*metaFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m metaFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parsing %s: %w", metaName, err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("store: %s version %d, want 1", metaName, m.Version)
	}
	return &m, nil
}

// resolveConfig fills zero analytics fields from the meta file, applies
// defaults, and rejects conflicts on the state-affecting parameters.
func resolveConfig(cfg streaming.Config, m *metaFile) (streaming.Config, error) {
	if m != nil {
		if cfg.Origin.IsZero() {
			cfg.Origin = m.Origin
		}
		if cfg.WindowHours <= 0 {
			cfg.WindowHours = m.WindowHours
		}
		if cfg.PrefixBits <= 0 {
			cfg.PrefixBits = m.PrefixBits
		}
		if cfg.TopK <= 0 {
			cfg.TopK = m.TopK
		}
		if cfg.SpikeFactor <= 0 {
			cfg.SpikeFactor = m.SpikeFactor
		}
		if cfg.SpikeHistory <= 0 {
			cfg.SpikeHistory = m.SpikeHistory
		}
		if cfg.SpikeMinFlows <= 0 {
			cfg.SpikeMinFlows = m.SpikeMinFlows
		}
	}
	cfg = cfg.WithDefaults()
	if m != nil && (!cfg.Origin.Equal(m.Origin) || cfg.WindowHours != m.WindowHours || cfg.PrefixBits != m.PrefixBits) {
		return cfg, fmt.Errorf("store: configured window [%s +%dh /%d] conflicts with stored [%s +%dh /%d]",
			cfg.Origin, cfg.WindowHours, cfg.PrefixBits, m.Origin, m.WindowHours, m.PrefixBits)
	}
	return cfg, nil
}

func (s *Store) writeMeta() error {
	m := metaFile{
		Version:       1,
		Origin:        s.cfg.Origin,
		WindowHours:   s.cfg.WindowHours,
		PrefixBits:    s.cfg.PrefixBits,
		TopK:          s.cfg.TopK,
		SpikeFactor:   s.cfg.SpikeFactor,
		SpikeHistory:  s.cfg.SpikeHistory,
		SpikeMinFlows: s.cfg.SpikeMinFlows,
		SegmentBytes:  s.opts.SegmentBytes,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWrite(filepath.Join(s.dir, metaName), append(data, '\n'))
}

// scanDir inventories segment, checkpoint and tier files (sorted by
// sequence) and, on a writable open, sweeps stale temp files from
// crashed writes.
func (s *Store) scanDir() ([]segInfo, []frameMeta, []tier.FrameMeta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: %w", err)
	}
	var segs []segInfo
	var ckpts []frameMeta
	var tiers []tier.FrameMeta
	for _, e := range entries {
		name := e.Name()
		switch {
		case len(name) > 4 && name[len(name)-4:] == ".tmp":
			if !s.opts.ReadOnly {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
		case matchSeq(name, "wal-", ".seg") != nil:
			seq := *matchSeq(name, "wal-", ".seg")
			info, err := e.Info()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("store: %w", err)
			}
			segs = append(segs, segInfo{seq: seq, path: filepath.Join(s.dir, name), size: info.Size()})
			if seq >= s.nextSegSeq {
				s.nextSegSeq = seq + 1
			}
		case matchSeq(name, "ckpt-", ".ck") != nil:
			seq := *matchSeq(name, "ckpt-", ".ck")
			ckpts = append(ckpts, frameMeta{frameInfo: frameInfo{Seq: seq}, path: filepath.Join(s.dir, name)})
			if seq >= s.nextFrameSeq {
				s.nextFrameSeq = seq + 1
			}
		case matchSeq(name, "tier-d-", ".tf") != nil:
			seq := *matchSeq(name, "tier-d-", ".tf")
			tiers = append(tiers, tier.FrameMeta{Level: tier.LevelDay, Seq: seq})
			if seq >= s.nextFrameSeq {
				s.nextFrameSeq = seq + 1
			}
		case matchSeq(name, "tier-w-", ".tf") != nil:
			seq := *matchSeq(name, "tier-w-", ".tf")
			tiers = append(tiers, tier.FrameMeta{Level: tier.LevelWeek, Seq: seq})
			if seq >= s.nextFrameSeq {
				s.nextFrameSeq = seq + 1
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].Seq < ckpts[j].Seq })
	return segs, ckpts, tiers, nil
}

// matchSeq parses names like wal-%016d.seg; nil means no match.
func matchSeq(name, prefix, suffix string) *uint64 {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return nil
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return nil
		}
		seq = seq*10 + uint64(c-'0')
	}
	return &seq
}

// loadFrames reads every checkpoint frame, drops frames whose WAL
// interval is contained in another's (the half-done-compaction case),
// merges the survivors into the base state in WAL order, and returns the
// highest covered segment.
func (s *Store) loadFrames(ckpts []frameMeta) (uint64, error) {
	// One read+decode per frame; the states ride along until the obsolete
	// sweep decides which ones merge (recovery is the latency-critical
	// path, re-reading every file would double its I/O).
	decoded := make([]*streaming.Stored, len(ckpts))
	for i := range ckpts {
		info, st, err := loadFrame(ckpts[i], s.cfg)
		if err != nil {
			return 0, fmt.Errorf("store: checkpoint %s: %w", filepath.Base(ckpts[i].path), err)
		}
		ckpts[i].frameInfo = info
		decoded[i] = st
	}

	// A compaction writes the merged frame before removing its inputs; a
	// crash in between leaves frames whose (BaseSeg, CoveredSeg] interval
	// is contained in the merged one. Containment with a higher Seq wins.
	type liveFrame struct {
		meta  frameMeta
		state *streaming.Stored
	}
	var live []liveFrame
	for i := range ckpts {
		obsolete := false
		for j := range ckpts {
			if i == j {
				continue
			}
			o, n := ckpts[i].frameInfo, ckpts[j].frameInfo
			if n.BaseSeg <= o.BaseSeg && o.CoveredSeg <= n.CoveredSeg && n.Seq > o.Seq {
				obsolete = true
				break
			}
		}
		if obsolete {
			if !s.opts.ReadOnly {
				_ = os.Remove(ckpts[i].path)
			}
			continue
		}
		live = append(live, liveFrame{meta: ckpts[i], state: decoded[i]})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].meta.BaseSeg < live[j].meta.BaseSeg })

	var covered uint64
	for _, fr := range live {
		s.base.MergeStored(fr.state)
		s.frameCache.put(fr.meta.Seq, fr.state)
		s.frames = append(s.frames, fr.meta)
		s.frameRecords += fr.meta.Records
		if fr.meta.CoveredSeg > covered {
			covered = fr.meta.CoveredSeg
		}
		if st, err := os.Stat(fr.meta.path); err == nil && st.ModTime().After(s.lastCheckpoint) {
			s.lastCheckpoint = st.ModTime()
		}
	}
	s.recoveredFrames = len(s.frames)
	return covered, nil
}

// replayWAL folds every batch beyond the covered position into the tail
// shard. Damage in the final segment is a torn tail: the segment is
// truncated at the last intact record (the crash contract). Damage in an
// earlier segment is real corruption and fails the open.
func (s *Store) replayWAL(segs []segInfo, covered uint64) error {
	var replay []segInfo
	for _, seg := range segs {
		if seg.seq <= covered {
			// Folded into a checkpoint whose cleanup did not finish.
			if !s.opts.ReadOnly {
				_ = os.Remove(seg.path)
			}
			continue
		}
		replay = append(replay, seg)
	}
	for i, seg := range replay {
		last := i == len(replay)-1
		if err := s.replaySegment(seg, last); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) replaySegment(seg segInfo, last bool) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	torn := func(off int) error {
		if !last {
			return fmt.Errorf("store: segment %s damaged at offset %d with later segments intact", filepath.Base(seg.path), off)
		}
		s.truncatedBytes += int64(len(data) - off)
		if s.opts.ReadOnly {
			s.walBytes += int64(off)
			return nil
		}
		if off == 0 {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			return nil
		}
		if err := os.Truncate(seg.path, int64(off)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.sealed = append(s.sealed, segInfo{seq: seg.seq, path: seg.path, size: int64(off)})
		s.walBytes += int64(off)
		return nil
	}
	if len(data) < segHeaderLen || [8]byte(data[:8]) != segMagic || binary.BigEndian.Uint64(data[8:16]) != seg.seq {
		return torn(0)
	}
	off := segHeaderLen
	for off < len(data) {
		batch, n, err := readBatch(data[off:])
		if err != nil {
			return torn(off)
		}
		s.tail.Ingest(batch)
		s.tailRecords += uint64(len(batch))
		s.recoveredWAL += uint64(len(batch))
		off += n
	}
	s.sealed = append(s.sealed, seg)
	s.walBytes += seg.size
	return nil
}

// openSegmentLocked starts a fresh active segment.
func (s *Store) openSegmentLocked() error {
	seq := s.nextSegSeq
	s.nextSegSeq++
	path := segPath(s.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	for i := 0; i < 8; i++ {
		hdr[8+i] = byte(seq >> (56 - 8*i))
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.activeSeq = seq
	s.activeOff = segHeaderLen
	s.walBytes += segHeaderLen
	return nil
}

// Append writes one record batch to the WAL (write-through, fsync per
// policy) and folds it into the tail shard. The batch is not retained.
// It is the ingest pipeline's Sink.
func (s *Store) Append(batch []netflow.Record) error {
	return s.AppendGroup([][]netflow.Record{batch})
}

// AppendGroup commits several batches at once: one framed WAL record per
// batch (the on-disk format does not know about groups), one write(2)
// for all of them, one tail fold each, and one policy fsync for the lot.
// Empty batches are skipped. Under SyncAlways a nil return means every
// batch is on stable storage. It is the ingest pipeline's GroupSink.
func (s *Store) AppendGroup(batches [][]netflow.Record) error {
	var nBatches, nRecords uint64
	for _, b := range batches {
		if len(b) > 0 {
			nBatches++
			nRecords += uint64(len(b))
		}
	}
	if nBatches == 0 {
		return nil
	}
	// Unsampled timing: a commit is already a framed write syscall, so
	// two clock reads vanish in the noise (unlike the ingest decode path,
	// which samples).
	var t0 time.Time
	if s.om.appendSeconds != nil {
		t0 = time.Now()
		defer func() { s.om.appendSeconds.ObserveSince(t0) }()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return errors.New("store: read-only")
	}
	err := s.writeWALLocked(batches)
	// Availability over durability: the tail — and with it /snapshot,
	// /query and the next checkpoint — sees the group even when the WAL
	// write failed. A WAL error only degrades crash-durability until the
	// next successful checkpoint folds the tail into a frame; the caller
	// (the pipeline's SinkErrors counter) surfaces it.
	for _, b := range batches {
		s.tail.Ingest(b)
	}
	s.tailRecords += nRecords
	s.tailGen++
	s.appendedRecords += nRecords
	s.appendedBatches += nBatches
	// The commit's WAL position, taken before a rotation moves it: the
	// seal then covers it and the sync below returns without a syscall.
	f, seq, off := s.active, s.activeSeq, s.activeOff
	if err == nil && s.activeOff >= s.opts.SegmentBytes {
		err = s.rotateLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		if err := s.syncTo(f, seq, off); err != nil {
			return fmt.Errorf("store: WAL sync: %w", err)
		}
	}
	return nil
}

// syncTo makes the WAL durable up to offset off of segment seq (whose
// open fd is f), unless an earlier fsync or a seal already covered that
// position. It runs outside mu: other committers write and fold, and
// readers read, while the disk works. The timing and the store.fsync
// background trace (tail-sampled: a device whose sync latency degrades
// shows up as slow traces) wrap exactly the File.Sync call.
func (s *Store) syncTo(f *os.File, seq uint64, off int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if seq < s.durableSeq || seq == s.durableSeq && off <= s.durableOff {
		return nil
	}
	_, sp := s.opts.Tracer.StartTrace(context.Background(), "store.fsync", 0)
	var t0 time.Time
	if s.om.fsyncSeconds != nil {
		t0 = time.Now()
	}
	err := f.Sync()
	if s.om.fsyncSeconds != nil {
		s.om.fsyncSeconds.ObserveSince(t0)
	}
	sp.Fail(err)
	sp.End()
	if err == nil {
		s.durableSeq, s.durableOff = seq, off
	}
	return err
}

// sealActiveLocked syncs and closes the active segment's fd and lists
// the segment as sealed. Sync and close happen under syncMu and a
// successful sync marks the whole segment durable, so a committer still
// waiting to sync a position in it finds that position covered instead
// of a closed fd. A failed sync leaves the segment active for the caller
// to retry, unless force is set (callers with no later chance: Close,
// and the rollback path abandoning a torn segment). Caller holds mu.
func (s *Store) sealActiveLocked(force bool) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	err := s.active.Sync()
	if err != nil && !force {
		return err
	}
	if err == nil {
		s.durableSeq, s.durableOff = s.activeSeq+1, 0
	}
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	s.sealed = append(s.sealed, segInfo{seq: s.activeSeq, path: segPath(s.dir, s.activeSeq), size: s.activeOff})
	return err
}

// writeWALLocked appends one framed record per non-empty batch to the
// active segment with a single write, recovering from earlier failures:
// a missing active segment (a rotation that hit transient ENOSPC) is
// reopened, and a failed write is rolled back to the last record
// boundary — the whole group — so the segment stays parseable. A
// momentary disk problem must never permanently disable persistence.
func (s *Store) writeWALLocked(batches [][]netflow.Record) error {
	if s.active == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	s.recordBuf = s.recordBuf[:0]
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		s.payloadBuf = appendBatchPayload(s.payloadBuf[:0], b)
		s.recordBuf = wire.AppendFrame(s.recordBuf, recTypeBatch, s.payloadBuf)
	}
	if _, err := s.active.Write(s.recordBuf); err != nil {
		// Roll back the partial group. Truncate trims the file but does
		// NOT move the fd offset — without the Seek, the next append
		// would land past a zero-filled hole and recovery would discard
		// everything after it as a torn tail.
		s.opts.Events.Record("wal_rollback", "WAL append failed, rolling back to last record boundary",
			obs.Int("segment_seq", int64(s.activeSeq)),
			obs.Int("offset", s.activeOff),
			obs.Str("err", err.Error()))
		terr := s.active.Truncate(s.activeOff)
		if terr == nil {
			_, terr = s.active.Seek(s.activeOff, io.SeekStart)
		}
		if terr != nil {
			// Cannot roll back through the fd: seal the segment at its
			// last intact record so the next append starts a fresh one
			// rather than appending unreachable records behind a torn
			// one; the next checkpoint sweeps the file away. Retry the
			// truncate by path after closing — leaving the torn bytes on
			// disk would make a crash before that checkpoint unrecoverable
			// (recovery treats damage in a non-final segment as corruption
			// and fails the whole Open).
			_ = s.sealActiveLocked(true) // the write error below is what the caller gets
			if perr := os.Truncate(segPath(s.dir, s.activeSeq), s.activeOff); perr != nil {
				return fmt.Errorf("store: WAL append: %w (torn bytes remain: rollback failed %v, truncate failed %v)", err, terr, perr)
			}
		}
		return fmt.Errorf("store: WAL append: %w", err)
	}
	s.activeOff += int64(len(s.recordBuf))
	s.walBytes += int64(len(s.recordBuf))
	return nil
}

// rotateLocked seals the active segment (if any) and starts the next
// one.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.sealActiveLocked(false); err != nil {
			return fmt.Errorf("store: sealing segment: %w", err)
		}
	}
	return s.openSegmentLocked()
}

// Checkpoint folds the tail shard into a durable checkpoint frame: it
// seals the active segment, writes the frame (atomically; the WAL is
// only deleted once the frame is on disk), merges the tail into the
// in-memory base, deletes the folded segments, starts a fresh segment
// and compacts old frames past the MaxFrames bound. With no new records
// since the last checkpoint it only refreshes the checkpoint clock.
//
// Only the seal and the state swap run under the append mutex; the
// expensive part — marshaling megabytes of shard state, writing and
// fsyncing the frame, compaction — runs lock-free so a checkpoint never
// stalls the pipeline workers into dropping batches. Appends that land
// during the fold go to the fresh tail and the new active segment
// (beyond the covered position), so they are recovery-safe no matter
// how the fold ends.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// The whole fold is one background trace (compaction folds are its
	// children); the empty-tail clock refresh is traced too, but at
	// microseconds it only survives as the 1-in-N baseline.
	ctx, sp := s.opts.Tracer.StartTrace(context.Background(), "store.checkpoint", 0)
	err := s.checkpointLocked(ctx, sp)
	s.pruneFrameCache()
	sp.Fail(err)
	sp.End()
	return err
}

func (s *Store) checkpointLocked(ctx context.Context, sp *obs.Span) error {
	// Times the real fold only: the empty-tail clock refresh returns
	// before the observation and never skews the distribution.
	var t0 time.Time
	if s.om.checkpointSeconds != nil {
		t0 = time.Now()
	}

	// Phase 1, under mu: seal the WAL position, swap the tail out.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return errors.New("store: read-only")
	}
	if s.tailRecords == 0 {
		s.lastCheckpoint = time.Now()
		s.mu.Unlock()
		return nil
	}
	// Ensure there is an active segment to seal (a failed rotation can
	// leave none), so the frame always covers a concrete WAL position.
	if s.active == nil {
		if err := s.openSegmentLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if err := s.rotateLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	coveredSeg := s.sealed[len(s.sealed)-1]
	sealedCount := len(s.sealed)
	oldTail, oldCount := s.tail, s.tailRecords
	s.tail = s.newTail()
	s.tailRecords = 0
	s.foldingTail, s.foldingRecords = oldTail, oldCount
	var baseSeg uint64
	if n := len(s.frames); n > 0 {
		baseSeg = s.frames[n-1].CoveredSeg
	}
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()

	// Phase 2, lock-free: marshal the swapped-out tail and write the
	// frame. On failure the tail folds back in chronological order so
	// the in-memory state again mirrors the un-covered WAL exactly (its
	// segments were not deleted).
	restore := func(err error) error {
		s.mu.Lock()
		fresh := s.newTail()
		fresh.Merge(oldTail)
		fresh.Merge(s.tail)
		s.tail = fresh
		s.tailRecords += oldCount
		s.foldingTail, s.foldingRecords = nil, 0
		s.mu.Unlock()
		return err
	}
	state, err := oldTail.MarshalBinary()
	if err != nil {
		return restore(err)
	}
	info := frameInfo{
		Seq:        seq,
		BaseSeg:    baseSeg,
		CoveredSeg: coveredSeg.seq,
		CoveredOff: coveredSeg.size,
		MinHour:    -1,
		MaxHour:    -1,
		Records:    oldCount,
	}
	if minH, maxH, ok := oldTail.Bounds(); ok {
		info.MinHour, info.MaxHour = int64(minH), int64(maxH)
	}
	path := ckptPath(s.dir, info.Seq)
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, info, state))
	if err := atomicWrite(path, rec); err != nil {
		return restore(err)
	}

	// Phase 3, under mu: the frame is durable — commit, then fold the
	// covered WAL away (file removal itself needs no lock).
	s.mu.Lock()
	s.frames = append(s.frames, frameMeta{frameInfo: info, path: path})
	s.frameRecords += info.Records
	s.base.Merge(oldTail)
	s.foldingTail, s.foldingRecords = nil, 0
	folded := append([]segInfo(nil), s.sealed[:sealedCount]...)
	s.sealed = append(s.sealed[:0], s.sealed[sealedCount:]...)
	for _, seg := range folded {
		s.walBytes -= seg.size
	}
	s.checkpoints++
	s.ckptGen++
	s.lastCheckpoint = time.Now()
	s.mu.Unlock()
	for _, seg := range folded {
		_ = os.Remove(seg.path)
	}
	s.opts.Events.Record("checkpoint_committed", "tail folded into a durable frame",
		obs.Int("frame_seq", int64(info.Seq)),
		obs.Int("records", int64(info.Records)),
		obs.Int("segments_folded", int64(len(folded))))
	sp.Set(obs.Int("frame_seq", int64(info.Seq)), obs.Int("records", int64(info.Records)))
	if s.om.checkpointSeconds != nil {
		s.om.checkpointSeconds.ObserveSince(t0)
	}
	if err := s.compact(ctx); err != nil {
		return err
	}
	return s.tierFold(ctx)
}

// compact folds the oldest adjacent frame pairs together until the
// frame count is back under MaxFrames. The merged frame is written
// under a fresh sequence before its inputs are removed, so a crash at
// any point leaves either the inputs or a containing merged frame —
// never a gap (Open's containment sweep deletes leftovers). Caller
// holds ckptMu (the only writer of s.frames); file I/O runs outside mu,
// with queries retrying if they race a removal.
func (s *Store) compact(ctx context.Context) error {
	for {
		done, err := s.compactOnce(ctx)
		if done || err != nil {
			return err
		}
	}
}

// compactOnce folds the single oldest adjacent frame pair, as its own
// child span under the checkpoint trace; done reports the frame count
// is back under the bound.
func (s *Store) compactOnce(ctx context.Context) (done bool, err error) {
	s.mu.Lock()
	if len(s.frames) <= s.opts.MaxFrames {
		s.mu.Unlock()
		return true, nil
	}
	// Straddle guard: never merge a pair whose combined WAL interval
	// crosses the day-tier coverage horizon. The tier planner separates
	// tiered history from the raw residual by a single segment floor;
	// a frame spanning both sides would be half double-counted, half
	// missing from every day/week answer. Skip to the first adjacent
	// pair clear of the horizon (at most one pair straddles it).
	dayCovered := tierCovered(s.tierDay)
	idx := -1
	for i := 0; i+1 < len(s.frames); i++ {
		if s.frames[i].BaseSeg < dayCovered && dayCovered < s.frames[i+1].CoveredSeg {
			continue
		}
		idx = i
		break
	}
	if idx < 0 {
		s.mu.Unlock()
		return true, nil
	}
	f0, f1 := s.frames[idx], s.frames[idx+1]
	seq := s.nextFrameSeq
	s.nextFrameSeq++
	s.mu.Unlock()
	_, sp := obs.StartSpan(ctx, "store.compact")
	sp.Set(obs.Int("frame_seq", int64(seq)),
		obs.Int("records", int64(f0.Records+f1.Records)))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	// Compaction is rare, heavy I/O; the unconditional clock read is
	// noise even uninstrumented.
	foldStart := time.Now()

	a0, err := s.frameState(f0)
	if err != nil {
		return false, fmt.Errorf("store: compacting %s: %w", filepath.Base(f0.path), err)
	}
	a1, err := s.frameState(f1)
	if err != nil {
		return false, fmt.Errorf("store: compacting %s: %w", filepath.Base(f1.path), err)
	}
	info := frameInfo{
		Seq:        seq,
		BaseSeg:    f0.BaseSeg,
		CoveredSeg: f1.CoveredSeg,
		CoveredOff: f1.CoveredOff,
		MinHour:    mergeBound(f0.MinHour, f1.MinHour, false),
		MaxHour:    mergeBound(f0.MaxHour, f1.MaxHour, true),
		Records:    f0.Records + f1.Records,
	}
	// Merge at a window wide enough to hold the pair's combined hour
	// span. WindowHours is a *live* streaming bound; a compacted frame
	// is an archive, and folding at the live window would evict — and,
	// with the input files deleted below, permanently lose — the
	// oldest hourly bins of any pair spanning more than the window
	// (inevitable once a capture outlives WindowHours). The merged
	// state persists its own window; DecodeStored adopts it on load,
	// and queries fold into a target that evicts nothing
	// (streaming.Range), so /query serves every hour ever checkpointed.
	m := streaming.New(widenWindow(s.cfg, info.MinHour, info.MaxHour))
	m.MergeStored(a0)
	m.MergeStored(a1)
	state, err := m.MarshalBinary()
	if err != nil {
		return false, err
	}
	path := ckptPath(s.dir, info.Seq)
	rec := wire.AppendFrame(nil, recTypeFrame, appendFramePayload(nil, info, state))
	if err := atomicWrite(path, rec); err != nil {
		return false, err
	}

	s.mu.Lock()
	merged := make([]frameMeta, 0, len(s.frames)-1)
	merged = append(merged, s.frames[:idx]...)
	merged = append(merged, frameMeta{frameInfo: info, path: path})
	merged = append(merged, s.frames[idx+2:]...)
	s.frames = merged
	s.compacted++
	s.ckptGen++
	s.mu.Unlock()
	s.frameCache.retain(func(seq uint64) bool { return seq != f0.Seq && seq != f1.Seq })
	_ = os.Remove(f0.path)
	_ = os.Remove(f1.path)
	s.om.compactionSeconds.ObserveSince(foldStart)
	return false, nil
}

// widenWindow returns cfg with WindowHours widened to hold the
// inclusive hour span [minHour, maxHour] (-1 bounds: no span, cfg
// unchanged): merging archived hours into a ring narrower than their
// span evicts bins, which for compaction means permanent loss. The
// bounds are frame metadata loadFrame validated, so the result never
// exceeds streaming.MaxWindowHours.
func widenWindow(cfg streaming.Config, minHour, maxHour int64) streaming.Config {
	if need := int(maxHour - minHour + 1); minHour >= 0 && need > cfg.WindowHours {
		cfg.WindowHours = need
	}
	return cfg
}

// mergeBound combines two possibly-absent (-1) hour bounds.
func mergeBound(a, b int64, max bool) int64 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if max == (a > b) {
		return a
	}
	return b
}

// Flush makes everything appended so far durable. The ingest pipeline's
// periodic flush hook calls it under the SyncInterval policy. Like a
// SyncAlways commit it syncs outside mu, and not at all when nothing
// was written since the last sync.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.closed || s.opts.ReadOnly || s.active == nil {
		s.mu.Unlock()
		return nil
	}
	f, seq, off := s.active, s.activeSeq, s.activeOff
	s.mu.Unlock()
	return s.syncTo(f, seq, off)
}

// Snapshot merges the checkpointed base state with the live tail into
// one full-coverage snapshot — the durable equivalent of the pipeline's
// in-memory view, and identical to it when both saw the same records —
// stamped with the Version(zero, zero) of the instant it was taken.
func (s *Store) Snapshot() *streaming.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := streaming.New(s.cfg)
	m.Merge(s.base)
	if s.foldingTail != nil {
		m.Merge(s.foldingTail)
	}
	m.Merge(s.tail)
	snap := m.Snapshot()
	snap.Version = s.versionLocked(time.Time{}, time.Time{})
	return snap
}

// Config reports the resolved analytics configuration (meta-file values
// merged with the open options).
func (s *Store) Config() streaming.Config { return s.cfg }

// Metrics reports the store gauges.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Segments:            len(s.sealed),
		WALBytes:            s.walBytes,
		Frames:              len(s.frames),
		FrameRecords:        s.frameRecords,
		TailRecords:         s.tailRecords,
		AppendedRecords:     s.appendedRecords,
		AppendedBatches:     s.appendedBatches,
		RecoveredFrames:     s.recoveredFrames,
		RecoveredWALRecords: s.recoveredWAL,
		TruncatedBytes:      s.truncatedBytes,
		Checkpoints:         s.checkpoints,
		CompactedFrames:     s.compacted,
		LastCheckpoint:      s.lastCheckpoint,
		TierFramesDay:       len(s.tierDay),
		TierFramesWeek:      len(s.tierWeek),
		TierFolds:           s.tierFoldsDay + s.tierFoldsWeek,
	}
	if s.active != nil {
		m.Segments++
	}
	return m
}

// Close syncs and closes the active segment. It does not checkpoint;
// callers wanting a clean fold (the SIGTERM drain path) call Checkpoint
// first. The WAL makes a close without checkpoint equivalent to a crash
// with zero data loss. Close waits for an in-flight checkpoint (ckptMu,
// honoring the documented lock order): the data-dir lock must not be
// released while a fold is still writing frames and deleting WAL — a
// successor process acquiring it would race the tail of the fold.
func (s *Store) Close() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer func() {
		releaseDirLock(s.lock)
		s.lock = nil
	}()
	if s.active == nil {
		return nil
	}
	if err := s.sealActiveLocked(true); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// atomicWrite lands data at path via temp file + fsync + rename, with a
// best-effort directory sync so the rename itself is durable.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
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
	var segs []segInfo
	for _, e := range entries {
		if seq := matchSeq(e.Name(), "wal-", ".seg"); seq != nil {
			segs = append(segs, segInfo{seq: *seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i, seg := range segs {
		last := i == len(segs)-1
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(data) < segHeaderLen || [8]byte(data[:8]) != segMagic || binary.BigEndian.Uint64(data[8:16]) != seg.seq {
			if last {
				return nil
			}
			return fmt.Errorf("store: segment %s has a damaged header", filepath.Base(seg.path))
		}
		off := segHeaderLen
		for off < len(data) {
			batch, n, err := readBatch(data[off:])
			if err != nil {
				if last {
					return nil
				}
				return fmt.Errorf("store: segment %s damaged at offset %d: %w", filepath.Base(seg.path), off, err)
			}
			if err := fn(batch); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}
