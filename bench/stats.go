package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"cwatrace/internal/obs"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p99 over 300 samples is three points, not a statistic.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted, by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. The median only needs a non-empty sample.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	beyond := n - 1 - rank
	return sorted[rank], p <= 0.5 || beyond >= minBeyond
}

// tailPercentile returns the highest of the candidate percentiles that
// has minBeyond samples beyond it, falling back to the median.
func tailPercentile(sorted []float64, candidates ...float64) (value, p float64) {
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, c := range candidates {
		if v, ok := percentile(sorted, c); ok {
			return v, c
		}
	}
	v, _ := percentile(sorted, 0.5)
	return v, 0.5
}

// ms and us render a duration as fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the statistical median (the mean of the middle two for an
// even count), as Python's statistics.median and the driver compute it.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the run-to-run spread the driver uses: the distance
// between the first and third quartile as a share of the median.
func iqrShare(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := sortedCopy(v)
	q1, q3 := quartiles(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (exclusive
// method) on a sorted sample of at least two values.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// ---- Prometheus histograms, read through obs.Lint ----

// scrape is one parsed /metrics page.
type scrape struct{ exp *obs.Exposition }

// parseMetrics lints and parses an exposition page. A page the repo's
// own linter rejects is a harness failure, not something to read around.
func parseMetrics(text string) (*scrape, error) {
	exp, errs := obs.Lint(text)
	if len(errs) > 0 {
		return nil, fmt.Errorf("metrics page fails obs.Lint: %v", errs[0])
	}
	return &scrape{exp}, nil
}

// value returns a sample by full name and rendered labels; 0 if absent.
func (s *scrape) value(name, labels string) float64 {
	v, _ := s.exp.Value(name, labels)
	return v
}

// maxOf is the largest sample of the given name across label sets.
func (s *scrape) maxOf(name string) float64 {
	var m float64
	for _, sm := range s.exp.Samples {
		if sm.Name == name && sm.Value > m {
			m = sm.Value
		}
	}
	return m
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// buckets collects family's cumulative buckets whose labels (minus le)
// equal labels ("" for none), sorted by le.
func (s *scrape) buckets(family, labels string) []bucket {
	var out []bucket
	for _, sm := range s.exp.Samples {
		if sm.Name != family+"_bucket" {
			continue
		}
		le, rest, ok := splitLE(sm.Labels)
		if !ok || rest != labels {
			continue
		}
		out = append(out, bucket{le, sm.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// splitLE removes the le pair from a rendered label set.
func splitLE(labels string) (le float64, rest string, ok bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	found := false
	for _, pair := range strings.Split(body, ",") {
		k, v, _ := strings.Cut(pair, "=")
		if k != "le" {
			if pair != "" {
				kept = append(kept, pair)
			}
			continue
		}
		v = strings.Trim(v, `"`)
		if v == "+Inf" {
			le = math.Inf(1)
		} else {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, "", false
			}
			le = f
		}
		found = true
	}
	if len(kept) > 0 {
		rest = "{" + strings.Join(kept, ",") + "}"
	}
	return le, rest, found
}

// histQuantile estimates the q-quantile of the observations made
// between two scrapes of one histogram (after minus before), by linear
// interpolation inside the bucket, Prometheus-style. The +Inf bucket
// reports its lower bound. ok is false when nothing was observed.
func histQuantile(before, after []bucket, q float64) (float64, bool) {
	if len(after) == 0 {
		return 0, false
	}
	delta := make([]bucket, len(after))
	for i, b := range after {
		delta[i] = b
		if i < len(before) && before[i].le == b.le {
			delta[i].count -= before[i].count
		}
	}
	total := delta[len(delta)-1].count
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range delta {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE, true
			}
			in := b.count - prevCount
			if in <= 0 {
				return b.le, true
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/in, true
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE, true
}

// parseServerTiming reads the router's `shard0;dur=1.2, shard1;dur=3.4`
// header into per-shard milliseconds, indexed by shard.
func parseServerTiming(h string) ([]float64, error) {
	if h == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(part), ";")
		idx, okIdx := strings.CutPrefix(name, "shard")
		if !ok || !okIdx {
			return nil, fmt.Errorf("server-timing entry %q: want shardN;dur=MS", part)
		}
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("server-timing entry %q: bad shard index", part)
		}
		dur, okDur := strings.CutPrefix(strings.TrimSpace(params), "dur=")
		ms, err := strconv.ParseFloat(dur, 64)
		if !okDur || err != nil {
			return nil, fmt.Errorf("server-timing entry %q: bad dur", part)
		}
		for len(out) <= i {
			out = append(out, 0)
		}
		out[i] = ms
	}
	return out, nil
}
