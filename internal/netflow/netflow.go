// Package netflow reproduces the vantage point of the paper: routers that
// observe packets, sample them, aggregate sampled packets into flow-cache
// entries, and export flow records when cache entries time out or are
// evicted. The paper's key measurement caveats — packet sampling and "the
// routers Netflow cache eviction settings ... result in only observing few
// packets for most flows" — are explicit parameters here, so the ablation
// benches can sweep them.
package netflow

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// Proto numbers for the records.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// PortHTTPS is the only destination port the study keeps ("the data [is
// restricted] to encrypted HTTPS (tcp/443) IPv4 flows").
const PortHTTPS uint16 = 443

// Packet is one observed packet at a router.
type Packet struct {
	Time    time.Time
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Bytes   int
}

// Key is the flow five-tuple cache key.
type Key struct {
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Record is an exported flow record as the collector receives it.
type Record struct {
	Key
	Packets  uint64
	Bytes    uint64
	First    time.Time
	Last     time.Time
	Exporter string // router ID of the exporting device
}

// compareKeys is a total order over flow keys, used to keep export batches
// deterministic regardless of map iteration order.
func compareKeys(a, b *Key) int {
	if c := a.Src.Compare(b.Src); c != 0 {
		return c
	}
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// compareRecords is the three-way form of RecordLess.
func compareRecords(a, b *Record) int {
	if c := a.First.Compare(b.First); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Exporter, b.Exporter); c != 0 {
		return c
	}
	return compareKeys(&a.Key, &b.Key)
}

// RecordLess is a total order over records: start time, then exporter, then
// flow key. Identical simulation runs produce identical record sequences
// under this order. It takes pointers because a Record is 136 bytes, and a
// sort compares each one many times.
func RecordLess(a, b *Record) bool { return compareRecords(a, b) < 0 }

// byRecord sorts records under RecordLess, swapping them without reflection.
type byRecord []Record

func (s byRecord) Len() int           { return len(s) }
func (s byRecord) Less(i, j int) bool { return RecordLess(&s[i], &s[j]) }
func (s byRecord) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// sortRecords orders one cache's export batch. A cache holds one entry per
// flow key, so a batch has no ties and needs no stable sort.
func sortRecords(recs []Record) { sort.Sort(byRecord(recs)) }

// Config parameterizes a router's flow monitoring.
type Config struct {
	// SampleRate is 1-in-N packet sampling; 1 disables sampling. The
	// paper's vantage point uses sampled Netflow.
	SampleRate int
	// ActiveTimeout chops long-lived flows into multiple records.
	ActiveTimeout time.Duration
	// InactiveTimeout expires idle entries.
	InactiveTimeout time.Duration
	// MaxEntries caps the cache; overflow evicts the longest-idle entry,
	// producing the short truncated records the paper describes.
	MaxEntries int
}

// DefaultConfig mirrors common carrier settings: 1:100 sampling, 60s/15s
// timeouts, 64k entries.
func DefaultConfig() Config {
	return Config{
		SampleRate:      100,
		ActiveTimeout:   60 * time.Second,
		InactiveTimeout: 15 * time.Second,
		MaxEntries:      65536,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SampleRate < 1 {
		return fmt.Errorf("netflow: SampleRate %d < 1", c.SampleRate)
	}
	if c.ActiveTimeout <= 0 || c.InactiveTimeout <= 0 {
		return fmt.Errorf("netflow: timeouts must be positive")
	}
	if c.InactiveTimeout > c.ActiveTimeout {
		return fmt.Errorf("netflow: inactive timeout exceeds active timeout")
	}
	if c.MaxEntries < 1 {
		return fmt.Errorf("netflow: MaxEntries %d < 1", c.MaxEntries)
	}
	return nil
}

type entry struct {
	rec Record
}

// entryPool recycles cache entries across flows: the simulator creates and
// expires millions of entries per run, and reusing them removes that
// allocation churn from the hot path. The pool is shared by all caches
// (sync.Pool is safe for concurrent use by parallel shard workers).
var entryPool = sync.Pool{New: func() any { return new(entry) }}

// batchPool recycles the small export batches Observe/Sweep/Drain return.
// Callers that drive caches in a tight loop (the simulator) hand batches
// back via RecycleBatch once ingested; callers that keep the records alive
// simply never recycle.
var batchPool = sync.Pool{New: func() any { return new([]Record) }}

func getBatch() []Record {
	return (*batchPool.Get().(*[]Record))[:0]
}

// RecycleBatch returns an export batch obtained from Observe, Sweep or
// Drain to the internal pool. The caller must not retain the slice (or any
// aliases of it) afterwards.
func RecycleBatch(recs []Record) {
	if recs == nil {
		return
	}
	recs = recs[:0]
	batchPool.Put(&recs)
}

// Slab is the batch pool's slab mode: a record buffer that travels
// together with its backing storage. The caches' batch pool hands out
// bare slices, which forces RecycleBatch to re-box the slice
// header on every Put — one heap allocation per batch. A Slab keeps the
// header boxed for its whole life, so the ingest pipeline's
// datagram→decode→dispatch→recycle round trip allocates nothing in steady
// state, and the slab's capacity grows to the largest batch it ever
// carried instead of being reallocated per batch.
type Slab struct {
	// Recs is the slab's live records. Producers append with
	// Recs = append(Recs[:0], ...); consumers must not retain the slice
	// past RecycleSlab.
	Recs []Record
}

// slabPool recycles slabs across datagrams; shared by all pipeline
// readers and workers (sync.Pool is safe for concurrent use).
var slabPool = sync.Pool{New: func() any { return new(Slab) }}

// GetSlab hands out an empty slab from the shared pool.
func GetSlab() *Slab {
	s := slabPool.Get().(*Slab)
	s.Recs = s.Recs[:0]
	return s
}

// RecycleSlab returns a slab to the pool. The caller must not retain the
// slab or its Recs slice (or any aliases) afterwards. The records are not
// zeroed — a parked slab can pin the (small, long-lived) Exporter strings
// of its last batch, which is the price of keeping the recycle path a
// pointer push instead of a per-batch memclr; consumers of reused slabs
// (nfv9.Decoder.DecodeInto) overwrite every field of every slot they
// return, so stale state never leaks into decoded records.
func RecycleSlab(s *Slab) {
	if s == nil {
		return
	}
	s.Recs = s.Recs[:0]
	slabPool.Put(s)
}

// appendExport lazily takes a pooled batch on the first export of a call.
func appendExport(out []Record, r Record) []Record {
	if out == nil {
		out = getBatch()
	}
	return append(out, r)
}

// Cache is one router's flow cache. It is not safe for concurrent use; the
// simulator drives each router from its event loop.
type Cache struct {
	cfg      Config
	exporter string
	rng      *rand.Rand
	entries  map[Key]*entry

	// sampled and observed count packets for the census the ablation
	// reports.
	observed uint64
	sampled  uint64
}

// NewCache creates a flow cache for the named exporter. rng drives the
// sampling decision; passing a seeded source keeps runs reproducible.
func NewCache(exporter string, cfg Config, rng *rand.Rand) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("netflow: rng must not be nil")
	}
	return &Cache{
		cfg:      cfg,
		exporter: exporter,
		rng:      rng,
		entries:  make(map[Key]*entry),
	}, nil
}

// Observe feeds one packet through sampling into the cache. It returns any
// records exported as a side effect (active-timeout splits, evictions);
// usually nil.
func (c *Cache) Observe(p Packet) []Record {
	c.observed++
	if c.cfg.SampleRate > 1 && c.rng.Intn(c.cfg.SampleRate) != 0 {
		return nil
	}
	c.sampled++

	var out []Record
	k := Key{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
	e, ok := c.entries[k]
	if ok && p.Time.Sub(e.rec.First) >= c.cfg.ActiveTimeout {
		// Active timeout: export the running record and restart it.
		out = appendExport(out, e.rec)
		c.release(k, e)
		ok = false
	}
	if !ok {
		if len(c.entries) >= c.cfg.MaxEntries {
			if victim, evicted := c.evict(); evicted {
				out = appendExport(out, victim)
			}
		}
		e = entryPool.Get().(*entry)
		e.rec = Record{
			Key:      k,
			First:    p.Time,
			Exporter: c.exporter,
		}
		c.entries[k] = e
	}
	e.rec.Packets++
	e.rec.Bytes += uint64(p.Bytes)
	e.rec.Last = p.Time
	return out
}

// evict removes and returns the longest-idle entry. Called only when the
// cache is full, it produces the premature, packet-poor records the paper
// attributes to "cache eviction settings". Idle-time ties break on the flow
// key so eviction is deterministic.
func (c *Cache) evict() (Record, bool) {
	var victimKey Key
	var victim *entry
	for k, e := range c.entries {
		if victim == nil || e.rec.Last.Before(victim.rec.Last) ||
			(e.rec.Last.Equal(victim.rec.Last) && compareKeys(&k, &victimKey) < 0) {
			victimKey, victim = k, e
		}
	}
	if victim == nil {
		return Record{}, false
	}
	rec := victim.rec
	c.release(victimKey, victim)
	return rec, true
}

// release removes an entry from the cache and returns it to the pool. The
// caller must have copied the record out first.
func (c *Cache) release(k Key, e *entry) {
	delete(c.entries, k)
	e.rec = Record{}
	entryPool.Put(e)
}

// Sweep expires entries idle past the inactive timeout as of now and
// returns their records in deterministic order. The simulator calls it
// periodically.
func (c *Cache) Sweep(now time.Time) []Record {
	var out []Record
	for k, e := range c.entries {
		if now.Sub(e.rec.Last) >= c.cfg.InactiveTimeout {
			out = appendExport(out, e.rec)
			c.release(k, e)
		}
	}
	sortRecords(out)
	return out
}

// Drain exports everything still cached in deterministic order; used at the
// end of a capture.
func (c *Cache) Drain() []Record {
	var out []Record
	for k, e := range c.entries {
		out = appendExport(out, e.rec)
		c.release(k, e)
	}
	sortRecords(out)
	return out
}

// Len reports the number of live cache entries.
func (c *Cache) Len() int { return len(c.entries) }

// Stats reports the packets seen and the packets that passed sampling.
func (c *Cache) Stats() (observed, sampled uint64) { return c.observed, c.sampled }
