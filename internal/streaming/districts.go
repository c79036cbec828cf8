package streaming

import (
	"cmp"
	"math"
	"slices"

	"cwatrace/internal/geo"
)

// The one district id space is the embedded model's: index i is the i-th
// district of geo.Germany() in id order, the index cluster.Owner partitions
// records by. Every layer that counts districts adds by index into a dense
// array and renders by walking the indexes, which is id order, so no answer
// interns, sorts or looks up the ids of the model's districts. An id the
// model does not name (none that a geolocation sidecar built from the model
// hands out) is numbered by the DistrictSums that counts it, after the
// model's, and is sorted into the model's order when it renders; it never
// enters a table that outlives its sums.
var (
	germany        = geo.Germany()
	modelDistricts = germany.Districts()
)

// NoDistrict is the index of an id the model does not name.
const NoDistrict = math.MaxUint32

// DistrictIndex is id's index in the model's districts, if it names id.
func DistrictIndex(id string) (uint32, bool) {
	i, ok := germany.Index(id)
	return uint32(i), ok
}

// ResolveDistrict resolves an encoded district id once, where it comes off
// the wire or the disk: its index (NoDistrict outside the model) and its
// text — the model's own copy, so a decoded model id allocates nothing.
func ResolveDistrict(b []byte) (uint32, string) {
	if i, ok := germany.Index(string(b)); ok {
		return uint32(i), modelDistricts[i].ID
	}
	return NoDistrict, string(b)
}

// DistrictSums is a table of per-district flow counts in the one id space:
// the counters of a live shard, a state, a fold and a long-horizon answer.
// A district a source named is listed even with zero flows. The zero value
// is empty and ready to use.
type DistrictSums struct {
	flows []uint64 // by index
	named []bool   // by index
	n     int      // how many are named
	// The ids past the model's, index len(modelDistricts)+k for extra[k],
	// in first-seen order; extraIdx finds them (nil in a read-only copy).
	extra    []string
	extraIdx map[string]uint32
}

// Len is how many districts the sums list.
func (s *DistrictSums) Len() int { return s.n }

// Add adds flows to a district and returns its index in s. i is the
// model's index of id when the caller has resolved it, else NoDistrict.
func (s *DistrictSums) Add(i uint32, id string, flows uint64) uint32 {
	if i == NoDistrict {
		i = s.index(id)
	}
	s.grow(i)
	s.flows[i] += flows
	if !s.named[i] {
		s.named[i] = true
		s.n++
	}
	return i
}

// set is Add that overwrites: a state's encoding lets the last row for an
// id win.
func (s *DistrictSums) set(i uint32, id string, flows uint64) {
	i = s.Add(i, id, 0)
	s.flows[i] = flows
}

// Merge adds every district of o to s, the model's by index.
func (s *DistrictSums) Merge(o *DistrictSums) {
	for i, named := range o.named[:min(len(o.named), len(modelDistricts))] {
		if named {
			s.Add(uint32(i), "", o.flows[i])
		}
	}
	for k, id := range o.extra {
		s.Add(NoDistrict, id, o.flows[len(modelDistricts)+k])
	}
}

// index finds or numbers an id.
func (s *DistrictSums) index(id string) uint32 {
	if i, ok := DistrictIndex(id); ok {
		return i
	}
	if i, ok := s.extraIdx[id]; ok {
		return i
	}
	if s.extraIdx == nil {
		s.extraIdx = make(map[string]uint32)
	}
	i := uint32(len(modelDistricts) + len(s.extra))
	s.extra = append(s.extra, id)
	s.extraIdx[id] = i
	return i
}

// grow makes index i addressable: the model's part is sized once, whole.
func (s *DistrictSums) grow(i uint32) {
	if int(i) < len(s.flows) {
		return
	}
	n := max(int(i)+1, len(modelDistricts), 2*len(s.flows))
	s.flows = append(s.flows, make([]uint64, n-len(s.flows))...)
	s.named = append(s.named, make([]bool, n-len(s.named))...)
}

// Each calls fn for every district listed, in id order: the model's by
// index, with the ids outside it sorted in between. i is the model's index
// of id, or NoDistrict.
func (s *DistrictSums) Each(fn func(i uint32, id string, flows uint64)) {
	model := len(modelDistricts)
	var order []int // the extras, by id
	if len(s.extra) > 0 {
		order = make([]int, len(s.extra))
		for k := range order {
			order[k] = k
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.extra[a], s.extra[b]) })
	}
	extras := func(before string, all bool) {
		for ; len(order) > 0 && (all || s.extra[order[0]] < before); order = order[1:] {
			fn(NoDistrict, s.extra[order[0]], s.flows[model+order[0]])
		}
	}
	for i, named := range s.named[:min(len(s.named), model)] {
		if named {
			id := modelDistricts[i].ID
			extras(id, false)
			fn(uint32(i), id, s.flows[i])
		}
	}
	extras("", true)
}

// Counts renders the sums as rollup rows in id order, named from the model
// when labeled; nil when there are none.
func (s *DistrictSums) Counts(labeled bool) []DistrictCount {
	if s.n == 0 {
		return nil
	}
	rows := make([]DistrictCount, 0, s.n)
	s.Each(func(i uint32, id string, flows uint64) {
		dc := DistrictCount{ID: id, Flows: flows}
		if labeled && i != NoDistrict {
			dc.Name, dc.StateCode = modelDistricts[i].Name, modelDistricts[i].StateCode
		}
		rows = append(rows, dc)
	})
	return rows
}
