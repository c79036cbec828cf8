// Package cluster turns a fleet of shard collectors into one logical
// collector. The partition key is the paper's 401-district model: every
// record whose client address geolocates is owned by its district's
// shard (district index in canonical sorted-ID order, modulo the fleet
// size), and the remainder hash their client /24 onto a shard. The
// partition is total, disjoint and exhaustive — every record has
// exactly one owner — which is what makes the router's scatter-gather
// merge exact: summing the shards' aggregates reproduces the union
// collector's aggregates bit for bit.
//
// The package has two halves: the shard filter (Assignment, Filter)
// that a collectord runs at ingest so each node keeps only its share,
// and the Fleet (fleet.go) that a queryrouterd runs to gather, merge
// and validate the shards' API responses.
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"strconv"
	"strings"

	"cwatrace/internal/geodb"
	"cwatrace/internal/netflow"
	"cwatrace/internal/streaming"
)

// Assignment is one node's slot in an N-way partition.
type Assignment struct {
	// Index is this node's shard, in [0, Count).
	Index int
	// Count is the fleet size (1 = no sharding).
	Count int
}

// String renders the flag form, "i/N".
func (a Assignment) String() string { return fmt.Sprintf("%d/%d", a.Index, a.Count) }

// ParseAssignment parses the -shard flag form "i/N" (zero-based index,
// fleet size).
func ParseAssignment(s string) (Assignment, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Assignment{}, fmt.Errorf("cluster: bad shard %q (want i/N, e.g. 0/3)", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Assignment{}, fmt.Errorf("cluster: bad shard index in %q: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return Assignment{}, fmt.Errorf("cluster: bad shard count in %q: %v", s, err)
	}
	if n < 1 {
		return Assignment{}, fmt.Errorf("cluster: shard count %d < 1", n)
	}
	if i < 0 || i >= n {
		return Assignment{}, fmt.Errorf("cluster: shard index %d outside [0, %d)", i, n)
	}
	return Assignment{Index: i, Count: n}, nil
}

// Owner resolves the shard that owns record r under an n-way partition.
// A record whose client (Dst) geolocates is owned by its district's
// shard; everything else — unmapped prefixes, malformed addresses — is
// spread by a hash of the client /24 so the partition stays total.
func Owner(r *netflow.Record, db *geodb.DB, n int) int {
	if n <= 1 {
		return 0
	}
	if db != nil {
		if e, ok := db.Locate(r.Key.Dst); ok {
			if di, ok := streaming.DistrictIndex(e.DistrictID); ok {
				return int(di) % n
			}
		}
	}
	return prefixShard(r.Key.Dst, n)
}

// prefixShard hashes the /24-masked client address onto [0, n).
func prefixShard(addr netip.Addr, n int) int {
	if !addr.IsValid() {
		return 0
	}
	h := fnv.New32a()
	if addr.Is4() {
		b := addr.As4()
		b[3] = 0
		h.Write(b[:])
	} else {
		b := addr.As16()
		h.Write(b[:])
	}
	return int(h.Sum32() % uint32(n))
}

// Filter returns the ingest-side shard filter for assignment a: keep
// exactly the records this node owns. It returns nil when the node owns
// everything (Count <= 1), so an unsharded collectord pays nothing.
func (a Assignment) Filter(db *geodb.DB) func(*netflow.Record) bool {
	if a.Count <= 1 {
		return nil
	}
	idx, n := a.Index, a.Count
	return func(r *netflow.Record) bool {
		return Owner(r, db, n) == idx
	}
}
