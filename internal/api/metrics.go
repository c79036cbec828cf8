// The API metric catalogue: per-endpoint request counts and latency
// distributions (labeled by a fixed endpoint vocabulary, never by raw
// request paths — an attacker probing random URLs must not mint metric
// series), the in-flight gauge, and the conditional-GET effectiveness
// counters (304s served, cache hits vs misses, closed blocks kept vs not).
package api

import (
	"strings"
	"time"

	"cwatrace/internal/obs"
)

// endpointLabels is the closed label vocabulary for api_requests_total
// and api_request_seconds. Unknown paths fold into "other".
var endpointLabels = []string{
	"v1_snapshot", "v1_query", "v1_health", "v1_stats", "v1_other",
	"metrics", "other",
}

// endpointLabel maps a request path onto the vocabulary.
func endpointLabel(path string) string {
	switch path {
	case "/api/v1/snapshot":
		return "v1_snapshot"
	case "/api/v1/query":
		return "v1_query"
	case "/api/v1/health":
		return "v1_health"
	case "/api/v1/stats":
		return "v1_stats"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/api/v1/") {
		return "v1_other"
	}
	return "other"
}

// endpointInstruments is one endpoint label's counter + histogram pair.
type endpointInstruments struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// apiMetrics holds the server's instruments. The zero value (nil map,
// nil instruments) is the disabled mode.
type apiMetrics struct {
	inFlight    *obs.Gauge
	notModified *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	blockHits   *obs.Counter
	blockMisses *obs.Counter
	endpoints   map[string]endpointInstruments
}

func (m *apiMetrics) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.inFlight = reg.Gauge("api_inflight_requests", "Requests currently being handled.")
	m.notModified = reg.Counter("api_not_modified_total",
		"Conditional GETs answered 304 Not Modified (no body marshaled or sent).")
	m.cacheHits = reg.Counter("api_cache_hits_total",
		"Single-flight response cache hits (body served without re-marshaling).")
	m.cacheMisses = reg.Counter("api_cache_misses_total",
		"Single-flight response cache misses (one marshal per miss).")
	m.blockHits = reg.Counter("api_block_hits_total", "Closed hour blocks found kept by their rows (text spliced, deflate copied).")
	m.blockMisses = reg.Counter("api_block_misses_total", "Closed hour blocks not found kept (rendered; kept from the second sighting on).")
	m.endpoints = make(map[string]endpointInstruments, len(endpointLabels))
	for _, label := range endpointLabels {
		l := obs.L("endpoint", label)
		m.endpoints[label] = endpointInstruments{
			requests: reg.Counter("api_requests_total", "Requests handled, by endpoint.", l),
			latency: reg.Histogram("api_request_seconds",
				"Request handling latency, by endpoint.", obs.DurationBuckets, l),
		}
	}
}

// observe records one finished request. No-op when disabled.
func (m *apiMetrics) observe(path string, status int, dur time.Duration) {
	if m.endpoints == nil {
		return
	}
	e := m.endpoints[endpointLabel(path)]
	e.requests.Inc()
	e.latency.Observe(dur.Seconds())
	if status == 304 {
		m.notModified.Inc()
	}
}
