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
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

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
	// state-affecting fields (Origin, WindowHours).
	Analytics streaming.Config
	// SegmentBytes rotates the active WAL segment once it grows past
	// this size (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// MaxFrames bounds the checkpoint-frame count: past it, the oldest
	// frames are folded into one until MaxFrames/2 are left (default 64).
	MaxFrames int
	// ReadOnly opens the store for historical queries only: no WAL
	// truncation, no new segment, Append/Checkpoint fail.
	ReadOnly bool
	// Tier is ignored: every checkpoint of a writable store also folds
	// closed days of checkpoint frames into day tier frames and closed
	// weeks of day frames into week frames (see internal/tier).
	//
	// Deprecated: ignored.
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

// metaFile persists the resolved analytics configuration so restarts and
// read-only opens agree on the state-affecting parameters. The spike
// fields hold streaming's constants and are never read back: they keep
// meta.json's bytes (the datadir golden), which older binaries adopt.
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
// concurrent use; mu serializes the WAL (every wal method but syncTo is
// called under it) and the in-memory state (the hot Append path), and
// ckptMu, taken before mu, serializes whole checkpoints so their heavy
// I/O can run outside mu without two folds interleaving. The policy
// fsync runs outside both, under the wal's own lock (see wal).
type Store struct {
	mu     sync.Mutex
	ckptMu sync.Mutex
	dir    string
	opts   Options
	cfg    streaming.Config

	// levels holds the registered frames of each tier.Level (checkpoint,
	// day, week), each sorted by BaseSeg.
	levels       [len(frameNames)][]frameMeta
	tail         *streaming.Analytics
	tailRecords  uint64
	frameRecords uint64
	// watermark is a lower bound on the newest record start the frames and
	// the in-flight fold hold: each frozen tail's, or at Open the newest
	// frame hour's start.
	watermark time.Time

	// folding is the frame an in-flight checkpoint writes, foldingState
	// the tail it froze for it: reads add it as it is, so a fold never
	// hides records. Both are set and cleared under mu.
	folding      *frameMeta
	foldingState *streaming.Stored

	// lock is the flocked data-dir LOCK file of a writable open (nil when
	// ReadOnly); see lock.go.
	lock *os.File

	wal          *wal
	nextFrameSeq uint64

	appendedRecords uint64
	appendedBatches uint64
	recoveredWAL    uint64
	recoveredFrames int
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

	// tierFolds counts this process's folds into each level.
	tierFolds [len(frameNames)]uint64

	// Decoded frames of every level by seq, and the runs merged over
	// them (see framecache.go): seeded by Open, pruned to what is
	// registered at every checkpoint.
	frameCache *frameCache
	// prefixes gives every prefix row of the cached states and the tails
	// an id; replaced (under mu and ckptMu) past prefixCap ids.
	prefixes  atomic.Pointer[streaming.PrefixTable]
	prefixCap int

	om storeObsMetrics

	closed bool
}

// newTail builds a tail shard. A shard's hourly series keeps every hour
// it bins, and a checkpoint frame must: it holds *every* hour of the WAL
// interval whose deletion it authorizes — a burst that ingests more
// data-hours than the live window between two checkpoints must not lose
// its head. A tail costs the hours it holds, so memory stays bounded by
// the checkpoint cadence; the live window's view is imposed when Snapshot
// folds the frames and tails.
func (s *Store) newTail() *streaming.Analytics {
	t := streaming.New(s.cfg)
	t.Intern(s.prefixes.Load())
	return t
}

// tailHours is a tail's hour bounds as frame metadata: -1 for both while it
// holds no kept hour.
func tailHours(t *streaming.Analytics) (minHour, maxHour int64) {
	if lo, hi, ok := t.Bounds(); ok {
		return int64(lo), int64(hi)
	}
	return -1, -1
}

// Open opens (or creates) the store in dir and runs crash recovery:
// the frames of every level are decoded into the frame cache, the WAL
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
		boot: uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32,

		frameCache: newFrameCache(frameCacheBudget),
		prefixCap:  prefixTableCap,
	}
	s.prefixes.Store(streaming.NewPrefixTable())
	s.tail = s.newTail()
	if meta == nil {
		if opts.ReadOnly {
			return nil, fmt.Errorf("store: %s has no %s (not a store, or never initialized)", dir, metaName)
		}
		if err := s.writeMeta(); err != nil {
			return nil, err
		}
	}

	segs, found, err := s.scanDir()
	if err != nil {
		return nil, err
	}
	covered, err := s.loadFrames(found)
	if err != nil {
		return nil, err
	}
	s.wal, err = openWAL(dir, opts, &s.om, segs, covered, func(batch []netflow.Record) error {
		s.tail.Ingest(batch)
		s.tailRecords += uint64(len(batch))
		s.recoveredWAL += uint64(len(batch))
		return nil
	})
	if err != nil {
		return nil, err
	}

	if s.nextFrameSeq == 0 {
		s.nextFrameSeq = 1
	}
	if s.lastCheckpoint.IsZero() {
		s.lastCheckpoint = time.Now()
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
// defaults, and rejects conflicts on the state-affecting parameters and a
// window past the bound every frame reader holds states to.
func resolveConfig(cfg streaming.Config, m *metaFile) (streaming.Config, error) {
	if m != nil {
		if cfg.Origin.IsZero() {
			cfg.Origin = m.Origin
		}
		if cfg.WindowHours <= 0 {
			cfg.WindowHours = m.WindowHours
		}
		if cfg.TopK <= 0 {
			cfg.TopK = m.TopK
		}
	}
	cfg = cfg.WithDefaults()
	if cfg.WindowHours > streaming.MaxWindowHours {
		// Every frame would carry a window its own reader refuses.
		return cfg, fmt.Errorf("store: window of %d hours exceeds the %d-hour bound", cfg.WindowHours, streaming.MaxWindowHours)
	}
	if m != nil && (!cfg.Origin.Equal(m.Origin) || cfg.WindowHours != m.WindowHours || m.PrefixBits != streaming.ClientPrefixBits) {
		return cfg, fmt.Errorf("store: configured window [%s +%dh /%d] conflicts with stored [%s +%dh /%d]",
			cfg.Origin, cfg.WindowHours, streaming.ClientPrefixBits, m.Origin, m.WindowHours, m.PrefixBits)
	}
	return cfg, nil
}

func (s *Store) writeMeta() error {
	m := metaFile{
		Version:       1,
		Origin:        s.cfg.Origin,
		WindowHours:   s.cfg.WindowHours,
		PrefixBits:    streaming.ClientPrefixBits,
		TopK:          s.cfg.TopK,
		SpikeFactor:   streaming.SpikeFactor,
		SpikeHistory:  streaming.SpikeHistory,
		SpikeMinFlows: streaming.SpikeMinFlows,
		SegmentBytes:  s.opts.SegmentBytes,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWrite(filepath.Join(s.dir, metaName), append(data, '\n'))
}

// frameNames are each level's file-name prefix and suffix around the
// fixed-width seq: ckpt-%016d.ck, tier-d-%016d.tf and tier-w-%016d.tf.
var frameNames = [...][2]string{{"ckpt-", ".ck"}, {"tier-d-", ".tf"}, {"tier-w-", ".tf"}}

// framePath is the file of frame seq at level.
func framePath(dir string, level tier.Level, seq uint64) string {
	n := frameNames[level]
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", n[0], seq, n[1]))
}

// scanDir inventories segment and frame files (each kind in sequence
// order: os.ReadDir sorts by name and the names are fixed-width) and, on
// a writable open, sweeps stale temp files from crashed writes.
func (s *Store) scanDir() ([]segInfo, []frameMeta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	segs, err := listSegments(s.dir, entries)
	if err != nil {
		return nil, nil, err
	}
	var found []frameMeta
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			if !s.opts.ReadOnly {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		for level, n := range frameNames {
			if seq := matchSeq(name, n[0], n[1]); seq != nil {
				found = append(found, frameMeta{Meta: tier.Meta{Level: tier.Level(level), Seq: *seq}, path: filepath.Join(s.dir, name)})
				s.nextFrameSeq = max(s.nextFrameSeq, *seq+1)
			}
		}
	}
	return segs, found, nil
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
	// pos is the commit's WAL position; a rotation it triggered has
	// already covered it, and the sync below returns without a syscall.
	pos, err := s.wal.append(batches)
	// Availability over durability: the tail — and with it every
	// /api/v1/snapshot and /api/v1/query answer and the next checkpoint —
	// sees the group even when the WAL write failed. A WAL error only
	// degrades crash-durability until the next successful checkpoint
	// folds the tail into a frame; the caller (the pipeline's SinkErrors
	// counter) surfaces it.
	for _, b := range batches {
		s.tail.Ingest(b)
	}
	s.tailRecords += nRecords
	s.tailGen++
	s.appendedRecords += nRecords
	s.appendedBatches += nBatches
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		if err := s.wal.syncTo(pos); err != nil {
			return fmt.Errorf("store: WAL sync: %w", err)
		}
	}
	return nil
}

// Flush makes everything appended so far durable. The ingest pipeline's
// periodic flush hook calls it under the SyncInterval policy. Like a
// SyncAlways commit it syncs outside mu, and not at all when nothing
// was written since the last sync.
func (s *Store) Flush() error {
	s.mu.Lock()
	pos := s.wal.end() // no active segment (read-only, closed): nothing to sync
	s.mu.Unlock()
	return s.wal.syncTo(pos)
}

// Snapshot renders SnapshotResult, or returns nil when a frame could not
// be read; serving code renders SnapshotResult instead.
func (s *Store) Snapshot() *streaming.Snapshot {
	res, err := s.SnapshotResult()
	if err != nil {
		return nil
	}
	return res.Snapshot()
}

// SnapshotResult is the live view: the hour query over all of history
// (read, retried and failed like QueryResolution's), folded to its last
// -window-hours hours by streaming.FoldWindow, with no query metadata.
func (s *Store) SnapshotResult() (*QueryResult, error) {
	return s.query(time.Time{}, time.Time{}, tier.ResolutionHour, true)
}

// Config reports the resolved analytics configuration (meta-file values
// merged with the open options).
func (s *Store) Config() streaming.Config { return s.cfg }

// Metrics reports the store gauges.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	segments, walBytes, truncated := s.wal.stats()
	return Metrics{
		Segments:            segments,
		WALBytes:            walBytes,
		Frames:              len(s.levels[tier.LevelCheckpoint]),
		FrameRecords:        s.frameRecords,
		TailRecords:         s.tailRecords,
		AppendedRecords:     s.appendedRecords,
		AppendedBatches:     s.appendedBatches,
		RecoveredFrames:     s.recoveredFrames,
		RecoveredWALRecords: s.recoveredWAL,
		TruncatedBytes:      truncated,
		Checkpoints:         s.checkpoints,
		CompactedFrames:     s.compacted,
		LastCheckpoint:      s.lastCheckpoint,
		TierFramesDay:       len(s.levels[tier.LevelDay]),
		TierFramesWeek:      len(s.levels[tier.LevelWeek]),
		TierFolds:           s.tierFolds[tier.LevelDay] + s.tierFolds[tier.LevelWeek],
	}
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
	if err := s.wal.close(); err != nil {
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
