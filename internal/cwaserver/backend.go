// Package cwaserver implements the Corona-Warn-App backend the paper's
// vantage point fronts: the verification service (lab results and TANs),
// the submission service (diagnosis-key upload), and the distribution
// service (signed daily/hourly key packages plus their index). The same
// logic is exposed twice — as direct methods for the discrete-event
// simulator, and as net/http handlers (see http.go) for the runnable
// backend binary, the examples and the integration tests.
//
// The flow matches Figure 1 of the paper: lab testing feeds the
// verification service; a positive user's app requests a TAN and uploads
// its temporary exposure keys; every app downloads the published diagnosis
// keys once per day through the CDN.
package cwaserver

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cwatrace/internal/diagkeys"
	"cwatrace/internal/entime"
	"cwatrace/internal/exposure"
)

// TestResult is the state of a lab test as the app polls it.
type TestResult int

// Test result states, mirroring the CWA verification protocol.
const (
	ResultPending TestResult = iota
	ResultNegative
	ResultPositive
)

// Errors returned by the backend operations.
var (
	ErrUnknownToken  = errors.New("cwaserver: unknown registration token")
	ErrNotPositive   = errors.New("cwaserver: test result is not positive")
	ErrInvalidTAN    = errors.New("cwaserver: invalid or already used TAN")
	ErrInvalidUpload = errors.New("cwaserver: invalid diagnosis key upload")
	ErrNoSuchDay     = errors.New("cwaserver: no package for requested day")
)

type testRecord struct {
	result      TestResult
	availableAt time.Time
	tanIssued   bool
}

// Config parameterizes the backend.
type Config struct {
	Region string
	// SigningKey keys the export HMAC signer.
	SigningKey []byte
	// PaddingSeed drives deterministic export padding and shuffling.
	PaddingSeed int64
	// MinKeysPerExport is the plausible-deniability padding floor.
	MinKeysPerExport int
	// RetentionDays bounds how long published keys stay downloadable.
	RetentionDays int
}

// DefaultConfig returns production-like settings.
func DefaultConfig() Config {
	return Config{
		Region:           "DE",
		SigningKey:       []byte("cwa-reproduction-signing-key"),
		PaddingSeed:      0x5EED,
		MinKeysPerExport: diagkeys.MinKeysPerExport,
		RetentionDays:    exposure.StorageDays,
	}
}

// Backend is the shared state of all three services. All methods are safe
// for concurrent use. Read-heavy paths (result polling, package discovery,
// cached exports) take only a read lock, and the pure counters are atomics,
// so concurrent readers — the parallel simulation engine, the HTTP handlers
// — do not serialize on the writers.
type Backend struct {
	cfg    Config
	clock  entime.Clock
	signer diagkeys.Signer

	mu    sync.RWMutex
	tests map[string]*testRecord // registration token -> record
	tans  map[string]bool        // issued, unused TANs
	// keysByHour stores submissions bucketed by DayKey and hour of
	// submission; day packages aggregate all hours, hour packages (the
	// current-day distribution path of the real service) serve one
	// bucket.
	keysByHour map[string]map[int][]exposure.DiagnosisKey
	// exportCache holds each built day and hour package until new keys
	// arrive for it.
	exportCache map[exportKey][]byte
	uploads     atomic.Int64
	fakeCalls   atomic.Int64
}

// New creates a Backend. clock may be nil for wall-clock time.
func New(cfg Config, clock entime.Clock) (*Backend, error) {
	if cfg.Region == "" {
		return nil, fmt.Errorf("cwaserver: region required")
	}
	if len(cfg.SigningKey) == 0 {
		return nil, fmt.Errorf("cwaserver: signing key required")
	}
	if cfg.RetentionDays <= 0 {
		return nil, fmt.Errorf("cwaserver: retention must be positive")
	}
	if clock == nil {
		clock = entime.WallClock{}
	}
	return &Backend{
		cfg:         cfg,
		clock:       clock,
		signer:      diagkeys.NewHMACSigner(cfg.SigningKey),
		tests:       make(map[string]*testRecord),
		tans:        make(map[string]bool),
		keysByHour:  make(map[string]map[int][]exposure.DiagnosisKey),
		exportCache: make(map[exportKey][]byte),
	}, nil
}

// randomToken produces an unguessable hex token.
func randomToken() string {
	var b [16]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		// crypto/rand failing is unrecoverable; surface loudly.
		panic("cwaserver: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// RegisterTest is the lab-side entry point of Figure 1 ("lab testing"): it
// records a test whose result becomes visible to the app at availableAt and
// returns the registration token the patient's app will poll with.
func (b *Backend) RegisterTest(result TestResult, availableAt time.Time) string {
	token := randomToken()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tests[token] = &testRecord{result: result, availableAt: availableAt}
	return token
}

// PollResult returns the test state for a registration token, hiding
// results that are not yet available.
func (b *Backend) PollResult(token string) (TestResult, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	rec, ok := b.tests[token]
	if !ok {
		return ResultPending, ErrUnknownToken
	}
	if b.clock.Now().Before(rec.availableAt) {
		return ResultPending, nil
	}
	return rec.result, nil
}

// IssueTAN authorizes an upload for a positive, available test. Each test
// yields at most one TAN.
func (b *Backend) IssueTAN(token string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.tests[token]
	if !ok {
		return "", ErrUnknownToken
	}
	if b.clock.Now().Before(rec.availableAt) || rec.result != ResultPositive {
		return "", ErrNotPositive
	}
	if rec.tanIssued {
		return "", ErrInvalidTAN
	}
	rec.tanIssued = true
	tan := randomToken()
	b.tans[tan] = true
	return tan, nil
}

// SubmitKeys verifies the TAN (single use) and stores the uploaded
// diagnosis keys into the current day's pending export.
func (b *Backend) SubmitKeys(tan string, keys []exposure.DiagnosisKey) error {
	if len(keys) == 0 || len(keys) > exposure.StorageDays+1 {
		return fmt.Errorf("%w: %d keys", ErrInvalidUpload, len(keys))
	}
	for _, k := range keys {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidUpload, err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.tans[tan] {
		return ErrInvalidTAN
	}
	delete(b.tans, tan)
	now := b.clock.Now().In(entime.Berlin)
	day := diagkeys.DayKey(now)
	if b.keysByHour[day] == nil {
		b.keysByHour[day] = make(map[int][]exposure.DiagnosisKey)
	}
	b.keysByHour[day][now.Hour()] = append(b.keysByHour[day][now.Hour()], keys...)
	delete(b.exportCache, exportKey{day: day, whole: true})
	delete(b.exportCache, exportKey{day: day, hour: now.Hour()})
	b.uploads.Add(1)
	return nil
}

// RecordFakeCall counts a plausible-deniability dummy request (the app
// sends fakes so observers cannot tell uploaders from non-uploaders). It is
// lock-free: decoy traffic is high-volume and must not contend with real
// submissions.
func (b *Backend) RecordFakeCall() {
	b.fakeCalls.Add(1)
}

// Stats reports upload and fake-call counters.
func (b *Backend) Stats() (uploads, fakeCalls int) {
	return int(b.uploads.Load()), int(b.fakeCalls.Load())
}

// AvailableDays lists days (as DayKey strings) with published packages, in
// ascending order, bounded by the retention window. A day is published once
// it has ended or holds keys.
func (b *Backend) AvailableDays() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	now := b.clock.Now().In(entime.Berlin)
	var days []string
	for d := range b.keysByHour {
		days = append(days, d)
	}
	sort.Strings(days)
	// Trim to retention.
	cutoff := diagkeys.DayKey(now.AddDate(0, 0, -b.cfg.RetentionDays))
	kept := days[:0]
	for _, d := range days {
		if d >= cutoff {
			kept = append(kept, d)
		}
	}
	return kept
}

// AvailableHours lists the hours of a day holding keys, ascending. The app
// polls these for the current (still unfinished) day instead of waiting for
// the complete day package.
func (b *Backend) AvailableHours(day string) []int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var hours []int
	for h := range b.keysByHour[day] {
		hours = append(hours, h)
	}
	sort.Ints(hours)
	return hours
}

// Index returns the discovery document for the app, including the current
// day's published hours.
func (b *Backend) Index() (diagkeys.Index, error) {
	days := b.AvailableDays()
	idx := diagkeys.Index{Region: b.cfg.Region, Days: days}
	idx.Hours = b.AvailableHours(diagkeys.DayKey(b.clock.Now()))
	return idx, nil
}

// exportKey names a cached package: one hour of a day, or the whole day.
type exportKey struct {
	day   string
	hour  int
	whole bool
}

// export returns the package under key, built once and cached until the
// day or hour receives new keys. The cached path — the overwhelming
// majority of download traffic — takes only a read lock. The build is
// deterministic (seeded padding and shuffle, HMAC signature), so a rebuilt
// package is byte-identical.
func (b *Backend) export(key exportKey) ([]byte, error) {
	b.mu.RLock()
	cached, ok := b.exportCache[key]
	b.mu.RUnlock()
	if ok {
		return cached, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Re-check under the write lock: another goroutine may have built the
	// export while we waited.
	if cached, ok := b.exportCache[key]; ok {
		return cached, nil
	}
	var data []byte
	var err error
	if key.whole {
		data, err = b.buildDay(key.day)
	} else {
		data, err = b.buildHour(key.day, key.hour)
	}
	if err != nil {
		return nil, err
	}
	b.exportCache[key] = data
	return data, nil
}

// ExportForDay returns the signed, padded, shuffled key package for a
// DayKey.
func (b *Backend) ExportForDay(day string) ([]byte, error) {
	return b.export(exportKey{day: day, whole: true})
}

// buildDay builds a day package; the caller holds the write lock.
func (b *Backend) buildDay(day string) ([]byte, error) {
	hours, ok := b.keysByHour[day]
	if !ok {
		return nil, ErrNoSuchDay
	}
	dayStart, err := time.ParseInLocation("2006-01-02", day, entime.Berlin)
	if err != nil {
		return nil, fmt.Errorf("cwaserver: bad day key %q: %w", day, err)
	}
	var keys []exposure.DiagnosisKey
	hourList := make([]int, 0, len(hours))
	for h := range hours {
		hourList = append(hourList, h)
	}
	sort.Ints(hourList)
	for _, h := range hourList {
		keys = append(keys, hours[h]...)
	}
	export := &diagkeys.Export{
		Region: b.cfg.Region,
		Start:  entime.IntervalOf(dayStart),
		End:    entime.IntervalOf(dayStart.AddDate(0, 0, 1)),
		Keys:   keys,
	}
	// Deterministic padding per day: seed mixes the configured seed with
	// the day string so rebuilt caches are byte-identical.
	rng := mrand.New(mrand.NewSource(b.cfg.PaddingSeed ^ int64(len(keys))<<32 ^ hashDay(day)))
	diagkeys.Pad(export, b.cfg.MinKeysPerExport, rng)
	diagkeys.Shuffle(export, rng)
	return export.Marshal(b.signer)
}

// ErrNoSuchHour is returned when an hour package does not exist.
var ErrNoSuchHour = errors.New("cwaserver: no package for requested hour")

// ExportForHour returns the signed package of keys submitted within one
// hour of a day. Hour packages serve the current, still-running day; they
// carry no plausible-deniability padding (matching the early production
// behaviour — padding applied to the daily aggregates).
func (b *Backend) ExportForHour(day string, hour int) ([]byte, error) {
	return b.export(exportKey{day: day, hour: hour})
}

// buildHour builds an hour package; the caller holds the write lock.
func (b *Backend) buildHour(day string, hour int) ([]byte, error) {
	hours, ok := b.keysByHour[day]
	if !ok {
		return nil, ErrNoSuchDay
	}
	keys, ok := hours[hour]
	if !ok {
		return nil, ErrNoSuchHour
	}
	dayStart, err := time.ParseInLocation("2006-01-02", day, entime.Berlin)
	if err != nil {
		return nil, fmt.Errorf("cwaserver: bad day key %q: %w", day, err)
	}
	hourStart := dayStart.Add(time.Duration(hour) * time.Hour)
	export := &diagkeys.Export{
		Region: b.cfg.Region,
		Start:  entime.IntervalOf(hourStart),
		End:    entime.IntervalOf(hourStart.Add(time.Hour)),
		Keys:   append([]exposure.DiagnosisKey(nil), keys...),
	}
	rng := mrand.New(mrand.NewSource(b.cfg.PaddingSeed ^ hashDay(day) ^ int64(hour)))
	diagkeys.Shuffle(export, rng)
	return export.Marshal(b.signer)
}

// KeyCount returns the number of real (unpadded) keys stored for a day.
func (b *Backend) KeyCount(day string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, keys := range b.keysByHour[day] {
		n += len(keys)
	}
	return n
}

// Signer exposes the export signer so clients (and tests) can verify
// downloaded packages.
func (b *Backend) Signer() diagkeys.Signer { return b.signer }

func hashDay(day string) int64 {
	var h int64 = 1125899906842597
	for _, c := range day {
		h = h*31 + int64(c)
	}
	return h
}
