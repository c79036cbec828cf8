package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cwatrace/internal/entime"
	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// recoveryAnalytics is the analytics configuration shared by the durable
// pipeline runs (DB-less: district recovery has its own unit tests).
func recoveryAnalytics() streaming.Config {
	return streaming.Config{WindowHours: entime.StudyHours() + 24, TopK: 10}
}

// feedRecords encodes records as NFv9 packets across three exporter
// sources and injects them straight into the pipeline (no UDP, so no
// loss and no flakes).
func feedRecords(t *testing.T, p *Pipeline, recs []netflow.Record) {
	t.Helper()
	const (
		sources    = 3
		perPacket  = 25
		exportBase = 9000
	)
	encs := make([]*nfv9.Encoder, sources)
	for i := range encs {
		encs[i] = nfv9.NewEncoder(uint32(exportBase + i))
	}
	r := p.newLoopReader()
	pkt := 0
	for off := 0; off < len(recs); off += perPacket {
		end := off + perPacket
		if end > len(recs) {
			end = len(recs)
		}
		enc := encs[pkt%sources]
		data, err := enc.Encode(recs[off:end], recs[off].First)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		p.handleDatagram(r, fmt.Sprintf("203.0.113.%d:2055", pkt%sources), data)
		pkt++
	}
}

// runDurable pushes records through a pipeline into st and waits for a
// loss-free drain.
func runDurable(t *testing.T, st *store.Store, workers int, recs []netflow.Record) {
	t.Helper()
	p, err := New(Config{
		Workers:     workers,
		ShardBuffer: 8192,
		Sink:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedRecords(t, p, recs)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.DroppedRecords != 0 || s.SinkErrors != 0 || s.Processed != uint64(len(recs)) {
		t.Fatalf("durable run not loss-free: %+v (want %d processed)", s, len(recs))
	}
}

// walMultiset reads the multiset of every record surviving in dir's WAL,
// keyed by the record as the WAL codec decodes it.
func walMultiset(t *testing.T, dir string) (map[string]int, map[string]netflow.Record) {
	t.Helper()
	counts := make(map[string]int)
	samples := make(map[string]netflow.Record)
	err := store.WalkWAL(dir, func(batch []netflow.Record) error {
		for _, r := range batch {
			k := fmt.Sprintf("%+v", r)
			counts[k]++
			samples[k] = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts, samples
}

// copyDir clones a store directory so each truncation scenario starts
// from the same crashed state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// lastSegment returns the path and size of the highest-sequence WAL
// segment in dir.
func lastSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		name := e.Name()
		if len(name) > 8 && name[:4] == "wal-" && name[len(name)-4:] == ".seg" && name > filepath.Base(last) {
			last = filepath.Join(dir, name)
		}
	}
	if last == "" {
		t.Fatal("no WAL segment on disk")
	}
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	return last, st.Size()
}

// queryJSON renders a full-range query canonically.
func queryJSON(t *testing.T, st *store.Store) string {
	t.Helper()
	res, err := st.QueryResolution(time.Time{}, time.Time{}, tier.ResolutionHour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrashRecoveryByteIdentical is the subsystem's acceptance bar: a
// collector killed at an arbitrary WAL byte offset and restarted must
// serve a /query result byte-identical to an uninterrupted run over the
// same replayed trace — at 1 and 4 workers (make race runs this under
// the race detector).
//
// The kill is simulated exactly the way it manifests on disk: the store
// is dropped without a final checkpoint and its last WAL segment is
// truncated at an arbitrary byte offset (appends are write-through, so
// a SIGKILL can only lose the torn suffix). The records that were
// physically lost with the torn tail are re-sent after the restart —
// the byte-identity claim is about state reconstruction, not about
// resurrecting bytes that never reached the disk.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	res := runQuickSim(t)
	recs := res.Records
	if len(recs) > 40000 {
		recs = recs[:40000]
	}
	ck := len(recs) * 3 / 10  // records folded by the periodic checkpoint
	cut := len(recs) * 6 / 10 // records ingested before the crash

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference: one uninterrupted durable run over the trace.
			refDir := t.TempDir()
			refStore, err := store.Open(refDir, store.Options{Analytics: recoveryAnalytics()})
			if err != nil {
				t.Fatal(err)
			}
			runDurable(t, refStore, workers, recs)
			if err := refStore.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want := queryJSON(t, refStore)
			if err := refStore.Close(); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: ingest 60% of the trace with one periodic
			// checkpoint partway, then crash (no final checkpoint).
			crashDir := t.TempDir()
			crashStore, err := store.Open(crashDir, store.Options{Analytics: recoveryAnalytics()})
			if err != nil {
				t.Fatal(err)
			}
			runDurable(t, crashStore, workers, recs[:ck])
			if err := crashStore.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runDurable(t, crashStore, workers, recs[ck:cut])
			m := crashStore.Metrics()
			if m.Frames == 0 || m.TailRecords == 0 {
				t.Fatalf("crash scenario needs both frames and a WAL tail: %+v", m)
			}
			if err := crashStore.Close(); err != nil { // close-without-checkpoint == crash
				t.Fatal(err)
			}
			fullWAL, fullSamples := walMultiset(t, crashDir)

			_, segSize := lastSegment(t, crashDir)
			for _, torn := range []int64{0, segSize / 2, segSize - 3} {
				t.Run(fmt.Sprintf("truncate=%d", torn), func(t *testing.T) {
					dir := copyDir(t, crashDir)
					seg, _ := lastSegment(t, dir)
					if err := os.Truncate(seg, torn); err != nil {
						t.Fatal(err)
					}

					// What physically survived the crash, and therefore
					// which records the exporters must re-send: the
					// pre-truncation WAL multiset minus what is left.
					keptWAL, _ := walMultiset(t, dir)
					var resend []netflow.Record
					for k, n := range fullWAL {
						for i := keptWAL[k]; i < n; i++ {
							resend = append(resend, fullSamples[k])
						}
					}
					sort.Slice(resend, func(i, j int) bool { return netflow.RecordLess(resend[i], resend[j]) })

					// Restart on the same data dir: recovery replays the
					// surviving WAL onto the checkpoint frames.
					st, err := store.Open(dir, store.Options{Analytics: recoveryAnalytics()})
					if err != nil {
						t.Fatal(err)
					}
					rm := st.Metrics()
					if rm.RecoveredFrames != int(m.Frames) {
						t.Fatalf("recovered %d frames, want %d", rm.RecoveredFrames, m.Frames)
					}
					wantReplay := 0
					for _, n := range keptWAL {
						wantReplay += n
					}
					if rm.RecoveredWALRecords != uint64(wantReplay) {
						t.Fatalf("replayed %d WAL records, disk holds %d", rm.RecoveredWALRecords, wantReplay)
					}

					// Resume the trace: the torn-off records plus the part
					// never sent before the kill.
					rest := append(append([]netflow.Record(nil), resend...), recs[cut:]...)
					runDurable(t, st, workers, rest)
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if got := queryJSON(t, st); got != want {
						t.Errorf("recovered /query differs from uninterrupted run\n got: %.200s...\nwant: %.200s...", got, want)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
