package api

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
)

// etagFor derives the strong ETag of one response: a hash over the
// server boot nonce, the endpoint, the canonicalized request parameters
// (field selection, top, pretty, query bounds — anything that changes
// the bytes) and the data-generation token (store.Version, or a router's
// composite FanResult.Version). Equal ETags therefore certify byte-identical
// bodies within one server process; the boot nonce keeps a validator
// from one process ever matching another's.
func etagFor(boot uint64, endpoint, params string, version uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], boot)
	h.Write(buf[:])
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write([]byte(params))
	h.Write([]byte{0})
	binary.BigEndian.PutUint64(buf[:], version)
	h.Write(buf[:])
	return fmt.Sprintf("\"%016x\"", h.Sum64())
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*" matching anything. Weak validators (W/
// prefix) compare by opaque tag — fine for our use, where a 304 is
// always safe when the tag text matches.
func etagMatch(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		if cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/"); cand == "*" || cand == etag {
			return true
		}
	}
	return false
}
