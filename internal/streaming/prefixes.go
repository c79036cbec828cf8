package streaming

import (
	"net/netip"
	"sync"

	"cwatrace/internal/sketch"
)

// PrefixTable gives client prefixes dense ids, so a fold adds prefix counts
// into an array instead of interning every row of every state into a map
// of its own, and a sketch reads a prefix's hash instead of hashing its text
// again. A durable store owns one and resolves each state against it once,
// before the state is shared (Resolve); its live tails give a row its
// id when the row is created (Analytics.Intern). Ids are only ever added,
// so an id is good for the table's lifetime. Safe for concurrent use.
type PrefixTable struct {
	mu  sync.Mutex
	idx map[netip.Prefix]uint32
	// By id, append-only: a slice header read under mu stays valid. hashes
	// trails prefixes until a reader asks for them (Hashes).
	prefixes []netip.Prefix
	hashes   []uint64
}

// NewPrefixTable builds an empty table.
func NewPrefixTable() *PrefixTable { return &PrefixTable{idx: map[netip.Prefix]uint32{}} }

// Len is how many ids the table has given out.
func (t *PrefixTable) Len() int { return len(t.Prefixes()) }

// internAll appends the ids of ps to ids, giving a prefix the next id on
// first sight.
func (t *PrefixTable) internAll(ids []uint32, ps ...netip.Prefix) []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range ps {
		id, ok := t.idx[p]
		if !ok {
			id = uint32(len(t.prefixes))
			t.idx[p] = id
			t.prefixes = append(t.prefixes, p)
		}
		ids = append(ids, id)
	}
	return ids
}

// Resolve records st's prefix ids in t. It writes to st, so it must run
// before st is shared; folds and sketches then read the ids concurrently.
func (t *PrefixTable) Resolve(st *Stored) {
	if st.table != t {
		st.ids, st.table = t.IDs(st), t
	}
}

// IDs returns st's prefix ids in t, row for row: st's own when it was
// resolved against t, else interned now (a router's state off the wire, a
// state resolved against a table since replaced). The result is read only.
func (t *PrefixTable) IDs(st *Stored) []uint32 {
	if st.table == t {
		return st.ids
	}
	return t.internAll(make([]uint32, 0, len(st.prefixes)), st.prefixes...)
}

// Prefixes returns the prefix of every id given out so far, by id.
func (t *PrefixTable) Prefixes() []netip.Prefix {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefixes
}

// Hashes returns, by id, the sketch hash of every prefix given out so far:
// sketch.HashBytes of its text, the item a distinct-prefix HLL has counted
// since the first tier frame was written. Each is computed once.
func (t *PrefixTable) Hashes() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var text [len("ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255/128")]byte
	for _, p := range t.prefixes[len(t.hashes):] {
		t.hashes = append(t.hashes, sketch.HashBytes(p.AppendTo(text[:0])))
	}
	return t.hashes
}

// tableOf is the table a fold of states adds by: the first one any of them
// was resolved against, else a table of the fold's own.
func tableOf(states []*Stored) *PrefixTable {
	for _, st := range states {
		if st.table != nil {
			return st.table
		}
	}
	return NewPrefixTable()
}

// rowSlotPool holds the dense id → row arrays of Range.addPrefixes.
var rowSlotPool = sync.Pool{New: func() any { return new([]uint32) }}
