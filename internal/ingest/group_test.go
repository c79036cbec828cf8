package ingest

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
)

// flakySink fails every other commit, the first included — however few
// commits an overloaded run gets through, some fail and (given two) some
// succeed — and keeps its own books, so the pipeline's SinkErrors can be
// checked against what the sink actually refused. It is a GroupSink;
// plainSink below hides AppendGroup, and the pipeline must then fall
// back to batch-by-batch Append.
type flakySink struct {
	mu            sync.Mutex
	commits       int
	maxGroup      int
	records       int
	failedBatches int
	emptyBatches  int
}

func (s *flakySink) Append(batch []netflow.Record) error {
	return s.AppendGroup([][]netflow.Record{batch})
}

func (s *flakySink) AppendGroup(batches [][]netflow.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits++
	if len(batches) > s.maxGroup {
		s.maxGroup = len(batches)
	}
	for _, b := range batches {
		s.records += len(b)
		if len(b) == 0 {
			s.emptyBatches++
		}
	}
	if s.commits%2 == 1 {
		s.failedBatches += len(batches)
		return errors.New("disk on fire")
	}
	return nil
}

// plainSink exposes only Append, hiding the GroupSink side.
type plainSink struct{ s *flakySink }

func (p plainSink) Append(batch []netflow.Record) error { return p.s.Append(batch) }

// dropEveryFourthPacket is a shard filter that discards whole packets
// of encodePackets' stream (record i rides in packet i/recsPerPkt and
// carries i in its destination address), so groups contain batches the
// filter emptied.
func dropEveryFourthPacket(recsPerPkt int) func(*netflow.Record) bool {
	return func(r *netflow.Record) bool {
		b := r.Key.Dst.As4()
		i := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
		return (i/recsPerPkt)%4 != 0
	}
}

// TestGroupCommitAccounting overloads a small pipeline in front of a
// failing sink and checks the books after the drain: every record is
// processed or dropped, SinkErrors stays in units of batches (a failed
// group adds every non-empty batch it carried), batches the shard
// filter emptied never reach the sink, and a Sink without AppendGroup
// is fed batch by batch. Runs under -race via `make race`.
func TestGroupCommitAccounting(t *testing.T) {
	const (
		packets    = 600
		recsPerPkt = 10
	)
	pkts := encodePackets(t, packets, recsPerPkt)
	for _, grouped := range []bool{true, false} {
		sink := &flakySink{}
		cfg := Config{
			Workers:     2,
			ShardBuffer: 8,
			ShardFilter: dropEveryFourthPacket(recsPerPkt),
			workerDelay: 100 * time.Microsecond,
		}
		if grouped {
			cfg.Sink = sink
		} else {
			cfg.Sink = plainSink{sink}
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := p.newLoopReader()
		for _, pkt := range pkts {
			p.handleDatagram(r, "203.0.113.7:2055", pkt)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Records != packets*recsPerPkt || s.DroppedRecords == 0 {
			t.Fatalf("grouped=%v: want an overloaded full feed, got %+v", grouped, s)
		}
		if s.Records != s.Processed+s.DroppedRecords {
			t.Fatalf("grouped=%v: accounting leak: %d != processed %d + dropped %d",
				grouped, s.Records, s.Processed, s.DroppedRecords)
		}
		if s.SinkErrors == 0 || s.SinkErrors != uint64(sink.failedBatches) {
			t.Fatalf("grouped=%v: SinkErrors %d, sink refused %d batches", grouped, s.SinkErrors, sink.failedBatches)
		}
		if sink.emptyBatches != 0 {
			t.Fatalf("grouped=%v: %d empty batches reached the sink", grouped, sink.emptyBatches)
		}
		if got := uint64(sink.records); got != s.Processed-s.ShardFiltered {
			t.Fatalf("grouped=%v: sink saw %d records, want processed %d - filtered %d",
				grouped, got, s.Processed, s.ShardFiltered)
		}
		if grouped && sink.maxGroup < 2 {
			t.Fatal("backed-up lanes never produced a group of more than one batch")
		}
		if !grouped && sink.maxGroup != 1 {
			t.Fatalf("plain Sink was handed a group of %d", sink.maxGroup)
		}
	}
}

// TestGroupCommitIntoStore runs the same overload into a real store at
// fsync=always: what the store appended is exactly what the pipeline
// processed and kept, and grouping shows as fewer commits — and no more
// fsyncs than commits — than batches.
func TestGroupCommitIntoStore(t *testing.T) {
	const (
		packets    = 400
		recsPerPkt = 10
	)
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{
		Analytics: recoveryAnalytics(),
		Sync:      store.SyncAlways,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := New(Config{
		Workers:     2,
		ShardBuffer: 8,
		ShardFilter: dropEveryFourthPacket(recsPerPkt),
		Sink:        st,
		workerDelay: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := p.newLoopReader()
	for _, pkt := range encodePackets(t, packets, recsPerPkt) {
		p.handleDatagram(r, "203.0.113.7:2055", pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s, m := p.Stats(), st.Metrics()
	if s.SinkErrors != 0 || s.Records != s.Processed+s.DroppedRecords {
		t.Fatalf("stats after drain: %+v", s)
	}
	if m.AppendedRecords != s.Processed-s.ShardFiltered {
		t.Fatalf("store appended %d records, want processed %d - filtered %d",
			m.AppendedRecords, s.Processed, s.ShardFiltered)
	}
	if got := uint64(st.Snapshot().Census.Total); got != m.AppendedRecords {
		t.Fatalf("store census %d, appended %d", got, m.AppendedRecords)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, errs := obs.Lint(sb.String())
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	commits, _ := exp.Value("store_append_seconds_count", "")
	fsyncs, _ := exp.Value("store_fsync_seconds_count", "")
	if commits == 0 || commits >= float64(m.AppendedBatches) {
		t.Fatalf("%v commits for %d batches: lanes backed up but nothing was grouped", commits, m.AppendedBatches)
	}
	if fsyncs == 0 || fsyncs > commits {
		t.Fatalf("%v fsyncs for %v commits", fsyncs, commits)
	}
}
