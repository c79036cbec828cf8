package geodb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
)

// fileEntry is the JSONL sidecar form of one prefix mapping. The trace
// provider ships this file alongside the anonymized trace, playing the
// role of BENOCS' prefix-to-location mapping.
type fileEntry struct {
	Prefix   string `json:"prefix"`
	District string `json:"district"`
	Source   string `json:"source"`
}

// Write serializes the database as JSONL (one prefix per line), in
// deterministic prefix order.
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	prefixes := make([]netip.Prefix, 0, len(db.byPrefix))
	for p := range db.byPrefix {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	for _, p := range prefixes {
		e := db.byPrefix[p]
		if err := enc.Encode(fileEntry{
			Prefix:   p.String(),
			District: e.DistrictID,
			Source:   e.Source.String(),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxDistrictIDLen bounds a district id read from a sidecar: ids are keys
// of the serving stack's durable formats, the narrowest of which (a tier
// frame) stores one under a single length byte.
const maxDistrictIDLen = 255

// Read parses a JSONL sidecar back into a database.
func Read(r io.Reader) (*DB, error) {
	db := &DB{byPrefix: make(map[netip.Prefix]Entry)}
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var fe fileEntry
		if err := dec.Decode(&fe); err == io.EOF {
			return db, nil
		} else if err != nil {
			return nil, fmt.Errorf("geodb: sidecar line %d: %w", i, err)
		}
		p, err := netip.ParsePrefix(fe.Prefix)
		if err != nil {
			return nil, fmt.Errorf("geodb: sidecar line %d: %w", i, err)
		}
		if len(fe.District) > maxDistrictIDLen {
			return nil, fmt.Errorf("geodb: sidecar line %d: district id of %d bytes (at most %d)", i, len(fe.District), maxDistrictIDLen)
		}
		src := SourceUnknown
		switch fe.Source {
		case "router":
			src = SourceRouter
		case "geoip":
			src = SourceGeoIP
		}
		db.byPrefix[p.Masked()] = Entry{DistrictID: fe.District, Source: src}
	}
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
