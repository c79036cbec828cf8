// Package v1 is the frozen wire schema of the collectord analytics API
// (the /api/v1 surface): typed request/response structs, the structured
// error envelope, and the field-selection vocabulary. Every consumer —
// the server (internal/api), the Go client (internal/api/client) and
// cwanalyze's remote mode — shares these types, so the contract lives in
// exactly one place.
//
// Versioning policy: v1 shapes only ever gain optional
// (omitempty-tagged) fields. Any change that would alter the meaning or
// encoding of an existing field forks a v2 package instead; the aliases
// below re-export internal aggregate types, which freezes their JSON
// encodings into the contract (a wire-incompatible change to one of
// them must copy the old shape into this package first).
package v1

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cwatrace/internal/core"
	"cwatrace/internal/ingest"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// Re-exported aggregate rows. The JSON encodings of these types are
// part of the v1 contract (see the package comment).
type (
	// HourPoint is one bucket of the hourly Figure-2 series.
	HourPoint = streaming.HourPoint
	// Spike is one hour flagged by the launch/attention detector.
	Spike = streaming.Spike
	// PrefixCount is one row of the active-prefix leaderboard.
	PrefixCount = streaming.PrefixCount
	// DistrictCount is one row of the per-district rollup.
	DistrictCount = streaming.DistrictCount
	// Census is the paper's data-set filter census (T1).
	Census = core.Census
	// IngestStats are the live pipeline counters.
	IngestStats = ingest.Stats
	// StoreMetrics are the durable-store gauges.
	StoreMetrics = store.Metrics
	// LongHorizon is the tiered day/week-resolution answer block (see
	// internal/tier.Answer): exact downsampled buckets and census plus
	// the sketched distinct-prefix and presence estimates, carried with
	// the marshaled sketch state so routers can merge across shards.
	LongHorizon = tier.Answer
)

// Error codes carried in the error envelope. A draining daemon is not
// an error: /api/v1/health reports it as a HealthResponse with
// StatusDraining and HTTP 503.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTimeout          = "timeout"
	CodeInternal         = "internal"
	// CodeUnavailable is a clustered router with no reachable shard: the
	// response cannot even be partial.
	CodeUnavailable = "unavailable"
)

// Error is the structured error the API returns on every failure path,
// wrapped in an ErrorResponse envelope. It doubles as the Go error the
// client surfaces, so callers can switch on Code.
type Error struct {
	// Code is a stable machine-readable identifier (the Code* constants).
	Code string `json:"code"`
	// Message is the human-readable summary.
	Message string `json:"message"`
	// Detail optionally narrows the cause (the offending parameter, the
	// underlying error text).
	Detail string `json:"detail,omitempty"`
	// Status is the HTTP status the server sent; the client fills it in,
	// it never travels in the body.
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("api: %s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// ErrorResponse is the envelope every non-2xx response body carries.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// Health status values.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
	// StatusDegraded is a clustered router that is serving, but with one
	// or more shards unreachable (partial data; see Degraded).
	StatusDegraded = "degraded"
)

// Degraded is the partial-failure contract of the clustered query
// router: when one or more shard nodes cannot be reached, data
// responses still merge every shard that answered, but they carry this
// marker (HTTP 206 Partial Content, Cache-Control: no-store, no ETag)
// so a partial total can never be cached — or consumed — as a complete
// one. Single-node responses never carry it (the field is omitted, so
// healthy-path bytes are unchanged).
type Degraded struct {
	// MissingShards are the shard indexes that did not answer, ascending.
	MissingShards []int `json:"missing_shards"`
	// Nodes are the unreachable nodes' addresses, parallel to
	// MissingShards.
	Nodes []string `json:"nodes,omitempty"`
	// Detail carries the first per-shard error, for operators.
	Detail string `json:"detail,omitempty"`
	// RequestID echoes the X-Request-Id of the request that observed the
	// degradation, so a partial response in a dashboard can be traced
	// back through the router and shard access logs. Optional (added
	// after v1 froze; see the versioning policy above).
	RequestID string `json:"request_id,omitempty"`
}

// HealthResponse is the /api/v1/health body. Status is StatusOK on a
// serving daemon (HTTP 200) and StatusDraining once SIGTERM drain has
// begun (HTTP 503), so load balancers stop routing to a daemon that is
// checkpointing its way down. A clustered router additionally reports
// StatusDegraded when some (HTTP 200) or all (HTTP 503) shards are
// unreachable.
type HealthResponse struct {
	Status string `json:"status"`
	// Degraded names the unreachable shards on a clustered router.
	Degraded *Degraded `json:"degraded,omitempty"`
}

// StatsResponse is the /api/v1/stats body: the live pipeline counters
// plus, on a durable collector, the store gauges. Stats are a
// diagnostic side channel — they change with every packet, so the
// endpoint is deliberately outside the cacheable/ETagged surface. A
// clustered router serves the field-wise sum over its shard nodes
// (store gauges only when every reachable node is durable).
type StatsResponse struct {
	Ingest IngestStats   `json:"ingest"`
	Store  *StoreMetrics `json:"store,omitempty"`
	// Degraded marks a partial sum (unreachable shards excluded).
	Degraded *Degraded `json:"degraded,omitempty"`
}

// Snapshot is the analytics view served by /api/v1/snapshot and
// embedded in QueryResponse. The always-present header fields describe
// the window; each aggregate section is optional and included per the
// request's field selection (nil and absent otherwise).
type Snapshot struct {
	Origin      time.Time `json:"origin"`
	WindowHours int       `json:"window_hours"`
	// SeriesStart is the hour index of Hours[0] relative to Origin
	// (meaningful with FieldHourly).
	SeriesStart int `json:"series_start"`

	// Hours is the hourly Figure-2 flow/byte series (FieldHourly).
	Hours []HourPoint `json:"hours,omitempty"`
	// Census reports the data-set filter outcomes, and Late the kept
	// records no hour can hold: before Origin or past the plausibility
	// bound (FieldFilters). Neither depends on when the store checkpointed.
	Census *Census `json:"census,omitempty"`
	Late   uint64  `json:"late,omitempty"`
	// Spikes holds the launch/attention detector hits (FieldSpikes).
	Spikes []Spike `json:"spikes,omitempty"`
	// TopPrefixes is the active client /24 leaderboard (FieldPrefixes).
	TopPrefixes []PrefixCount `json:"top_prefixes,omitempty"`
	// Districts and Located carry the Figure-3 rollup (FieldDistricts).
	Districts []DistrictCount `json:"districts,omitempty"`
	Located   uint64          `json:"located,omitempty"`

	// Degraded marks a partial clustered response (see Degraded).
	Degraded *Degraded `json:"degraded,omitempty"`
}

// QueryResponse is the /api/v1/query body — store.QueryResult in v1
// clothing.
type QueryResponse struct {
	// From/To echo the requested bounds (zero = open end).
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Frames is how many checkpoint frames were merged; TailIncluded
	// reports whether the live (un-checkpointed) tail contributed.
	Frames       int  `json:"frames"`
	TailIncluded bool `json:"tail_included"`
	// Snapshot is the merged, hour-trimmed view of the range. Under a
	// day/week resolution it holds only the exact raw residual beyond
	// tier coverage; the tiered aggregates live in LongHorizon.
	Snapshot *Snapshot `json:"snapshot"`
	// Resolution echoes the effective answer resolution and LongHorizon
	// carries the tiered answer; both are absent on the exact hourly
	// path (?resolution omitted, hour, or a store without tiers).
	Resolution  string       `json:"resolution,omitempty"`
	LongHorizon *LongHorizon `json:"long_horizon,omitempty"`
	// Degraded marks a partial clustered response (see Degraded).
	Degraded *Degraded `json:"degraded,omitempty"`
}

// FieldSet selects snapshot sections (?fields=hourly,prefixes,...).
type FieldSet uint

const (
	// FieldHourly selects the hourly Figure-2 series.
	FieldHourly FieldSet = 1 << iota
	// FieldFilters selects the data-set filter census.
	FieldFilters
	// FieldSpikes selects the spike-detector hits.
	FieldSpikes
	// FieldPrefixes selects the top-K prefix leaderboard.
	FieldPrefixes
	// FieldDistricts selects the per-district rollup.
	FieldDistricts

	// AllFields is the default selection: everything.
	AllFields = FieldHourly | FieldFilters | FieldSpikes | FieldPrefixes | FieldDistricts
)

// fieldNames maps wire names to bits in canonical order.
var fieldNames = []struct {
	name string
	bit  FieldSet
}{
	{"hourly", FieldHourly},
	{"filters", FieldFilters},
	{"spikes", FieldSpikes},
	{"prefixes", FieldPrefixes},
	{"districts", FieldDistricts},
}

// ParseFields parses a comma-separated ?fields= value. The empty string
// selects every section; an unknown name is a request error.
func ParseFields(s string) (FieldSet, error) {
	if s == "" {
		return AllFields, nil
	}
	var set FieldSet
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for _, fn := range fieldNames {
			if part == fn.name {
				set |= fn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("unknown field %q (want %s)", part, FieldList())
		}
	}
	if set == 0 {
		return AllFields, nil
	}
	return set, nil
}

// Has reports whether every bit of f2 is selected.
func (f FieldSet) Has(f2 FieldSet) bool { return f&f2 == f2 }

// String renders the selection canonically (stable order, no spaces) —
// the form cache keys and client URLs use.
func (f FieldSet) String() string {
	var names []string
	for _, fn := range fieldNames {
		if f.Has(fn.bit) {
			names = append(names, fn.name)
		}
	}
	return strings.Join(names, ",")
}

// FieldList names every valid field, for error messages and usage text.
func FieldList() string {
	names := make([]string, len(fieldNames))
	for i, fn := range fieldNames {
		names[i] = fn.name
	}
	return strings.Join(names, ",")
}

// NewSnapshot projects a merged streaming snapshot onto the v1 shape:
// only the selected sections are populated, and top > 0 truncates the
// ranked lists — TopPrefixes keeps its leading top entries (it is
// already ranked by flows), Districts is re-ranked by flows descending
// (ties by ID) before truncation so "top N districts" means the busiest
// ones, not the alphabetically first. top <= 0 keeps everything, with
// districts in their canonical ID order.
func NewSnapshot(src *streaming.Snapshot, fields FieldSet, top int) *Snapshot {
	s := &Snapshot{
		Origin:      src.Origin,
		WindowHours: src.WindowHours,
	}
	if fields.Has(FieldHourly) {
		s.SeriesStart = src.SeriesStart
		s.Hours = src.Hours
	}
	if fields.Has(FieldFilters) {
		c := src.Census
		s.Census = &c
		s.Late = src.Late
	}
	if fields.Has(FieldSpikes) {
		s.Spikes = src.Spikes
	}
	if fields.Has(FieldPrefixes) {
		s.TopPrefixes = src.TopPrefixes
		if top > 0 && len(s.TopPrefixes) > top {
			s.TopPrefixes = s.TopPrefixes[:top]
		}
	}
	if fields.Has(FieldDistricts) {
		s.Districts = src.Districts
		s.Located = src.Located
		if top > 0 && len(s.Districts) > top {
			ranked := append([]DistrictCount(nil), src.Districts...)
			sort.Slice(ranked, func(i, j int) bool {
				if ranked[i].Flows != ranked[j].Flows {
					return ranked[i].Flows > ranked[j].Flows
				}
				return ranked[i].ID < ranked[j].ID
			})
			s.Districts = ranked[:top]
		}
	}
	return s
}

// Streaming converts the v1 snapshot back into the internal shape, so
// remote consumers (cwanalyze -addr) can reuse every local renderer and
// derivation (Snapshot.Figure2). Sections the field selection omitted
// come back zero-valued.
func (s *Snapshot) Streaming() *streaming.Snapshot {
	out := &streaming.Snapshot{
		Origin:      s.Origin,
		WindowHours: s.WindowHours,
		SeriesStart: s.SeriesStart,
		Hours:       s.Hours,
		Spikes:      s.Spikes,
		TopPrefixes: s.TopPrefixes,
		Districts:   s.Districts,
		Late:        s.Late,
		Located:     s.Located,
	}
	if s.Census != nil {
		out.Census = *s.Census
	}
	return out
}
