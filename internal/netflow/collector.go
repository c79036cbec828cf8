package netflow

import (
	"cmp"
	"net/netip"
	"slices"

	"cwatrace/internal/cryptopan"
)

// Collector accumulates exported records from every router at the vantage
// point and applies the trace-release policy of the data set: client
// addresses are prefix-preserving anonymized, server addresses (needed for
// filtering) are left intact.
//
// The collector is sharded: each shard owns a private record buffer, so a
// parallel simulation engine can ingest from many workers without any
// locking, as long as every shard is driven by at most one goroutine at a
// time. The final order breaks ties on shard index, which keeps the output
// deterministic regardless of how work was scheduled onto workers.
type Collector struct {
	anon *cryptopan.Anonymizer
	// keep decides which addresses stay un-anonymized (the CWA hosting
	// prefixes).
	keep   func(netip.Addr) bool
	shards []*CollectorShard
}

// CollectorShard is one lock-free ingestion lane of a Collector. A shard
// must be driven by at most one goroutine at a time; distinct shards may be
// driven concurrently.
type CollectorShard struct {
	parent *Collector
	// memo is the shard's own view of the shared anonymizer (nil when
	// anonymization is off).
	memo    *cryptopan.Memo
	records []Record
}

// NewCollector creates a collector with a single shard. anon may be nil to
// disable anonymization (useful in unit tests); keep may be nil to anonymize
// everything.
func NewCollector(anon *cryptopan.Anonymizer, keep func(netip.Addr) bool) *Collector {
	if keep == nil {
		keep = func(netip.Addr) bool { return false }
	}
	c := &Collector{anon: anon, keep: keep}
	c.Resize(1)
	return c
}

// Resize grows the collector to at least n shards. It must not be called
// concurrently with ingestion; callers size the collector once before the
// run starts. Existing shards (and their records) are preserved.
func (c *Collector) Resize(n int) {
	for len(c.shards) < n {
		s := &CollectorShard{parent: c}
		if c.anon != nil {
			s.memo = cryptopan.NewMemo(c.anon)
		}
		c.shards = append(c.shards, s)
	}
}

// NumShards reports the current shard count.
func (c *Collector) NumShards() int { return len(c.shards) }

// Shard returns the i-th ingestion lane.
func (c *Collector) Shard(i int) *CollectorShard { return c.shards[i] }

// Ingest stores records after applying the anonymization policy. Records
// land on the shard's private buffer; no locks are taken.
func (s *CollectorShard) Ingest(recs []Record) {
	keep := s.parent.keep
	for _, r := range recs {
		if s.memo != nil {
			if !keep(r.Src) {
				r.Src = s.memo.Anonymize(r.Src)
			}
			if !keep(r.Dst) {
				r.Dst = s.memo.Anonymize(r.Dst)
			}
		}
		s.records = append(s.records, r)
	}
}

// Len reports the number of records held by this shard.
func (s *CollectorShard) Len() int { return len(s.records) }

// Ingest stores records on shard 0; the single-shard compatibility path for
// serial callers.
func (c *Collector) Ingest(recs []Record) { c.shards[0].Ingest(recs) }

// Len reports the number of collected records across all shards.
func (c *Collector) Len() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.records)
	}
	return n
}

// Records returns every shard's records under RecordLess, with ties kept in
// shard-index order and, within a shard, in ingestion order: exactly a
// stable sort of the shards' concatenation. It sorts small references that
// carry each record's start time and position, so the 136-byte records are
// compared in place and moved once, into the returned slice. The collector
// keeps that slice as shard 0's records and empties the others; callers
// must not Ingest afterwards while holding it.
func (c *Collector) Records() []Record {
	refs := make([]recordRef, 0, c.Len())
	for _, s := range c.shards {
		for i := range s.records {
			r := &s.records[i]
			refs = append(refs, recordRef{
				sec: r.First.Unix(), nsec: int32(r.First.Nanosecond()),
				pos: uint32(len(refs)), rec: r,
			})
		}
	}
	slices.SortFunc(refs, compareRefs)
	out := make([]Record, len(refs))
	for i := range refs {
		out[i] = *refs[i].rec
	}
	for _, s := range c.shards {
		s.records = nil
	}
	c.shards[0].records = out
	return out
}

// recordRef stands for one record in Records' sort: its start time, which
// decides most comparisons without touching the record, and its position
// in the shard-order concatenation, which breaks the ties RecordLess
// leaves.
type recordRef struct {
	sec  int64
	nsec int32
	pos  uint32
	rec  *Record
}

func compareRefs(a, b recordRef) int {
	if c := cmp.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
		return c
	}
	if c := compareRecords(a.rec, b.rec); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}
