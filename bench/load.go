package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cwatrace/internal/entime"
)

// slowLimit is the latency beyond which a query counts into
// query_slow_ratio: an interactive dashboard that waits longer has lost
// its user. A slow answer is still an answer, so it is not one of the
// run's failed operations: one scheduling or disk hiccup on a shared
// host would otherwise flip failed between two runs of the same code.
const slowLimit = 250 * time.Millisecond

// conn is one keep-alive HTTP connection: its own transport, capped at
// a single connection, so "2 connections" means exactly that. The
// transport negotiates gzip and decompresses, as a dashboard would.
type conn struct{ c *http.Client }

func newConn(rt func(http.RoundTripper) http.RoundTripper) *conn {
	var t http.RoundTripper = &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}
	if rt != nil {
		t = rt(t)
	}
	return &conn{&http.Client{Transport: t, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status  int
	body    []byte
	etag    string
	timing  string // Server-Timing
	latency time.Duration
}

func (c *conn) get(url, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:  resp.StatusCode,
		body:    body,
		etag:    resp.Header.Get("ETag"),
		timing:  resp.Header.Get("Server-Timing"),
		latency: time.Since(t0),
	}, nil
}

// queryStats accumulates one load goroutine's measurements.
type queryStats struct {
	latMS       []float64
	bytes       []float64
	shardMS     []float64 // every shard duration seen in Server-Timing
	attempted   int64
	failed      int64 // no answer, or a wrong one
	slow        int64 // right, but later than slowLimit
	notModified int64
	firstErr    string
	// sums maps a URL to the CRC of the body it returned, for the
	// post-window reference check; a URL answering with two different
	// bodies on a static store is a failure on the spot.
	sums map[string]uint32
}

func (qs *queryStats) fail(format string, args ...any) {
	qs.failed++
	if qs.firstErr == "" {
		qs.firstErr = fmt.Sprintf(format, args...)
	}
}

// record books one reply. static says the store cannot change, so
// equal URLs must return equal bytes.
func (qs *queryStats) record(url string, r reply, err error, static bool) {
	qs.attempted++
	switch {
	case err != nil:
		qs.fail("%s: %v", url, err)
		return
	case r.status != http.StatusOK && r.status != http.StatusNotModified:
		qs.fail("%s: status %d: %.200s", url, r.status, r.body)
	case r.latency > slowLimit:
		qs.slow++
	}
	if r.status == http.StatusNotModified {
		qs.notModified++
	}
	qs.latMS = append(qs.latMS, ms(r.latency))
	if r.status == http.StatusOK {
		qs.bytes = append(qs.bytes, float64(len(r.body)))
	}
	if ms, err := parseServerTiming(r.timing); err != nil {
		qs.fail("%s: %v", url, err)
	} else {
		qs.shardMS = append(qs.shardMS, ms...)
	}
	if static && r.status == http.StatusOK {
		qs.noteSum(url, crc32.ChecksumIEEE(r.body))
	}
}

// noteSum books the checksum of url's body; a second, different one
// from a static store is a failure.
func (qs *queryStats) noteSum(url string, sum uint32) {
	if qs.sums == nil {
		qs.sums = make(map[string]uint32)
	}
	if prev, seen := qs.sums[url]; seen && prev != sum {
		qs.fail("%s: two different bodies from a static store", url)
	}
	qs.sums[url] = sum
}

// merge folds other into qs.
func (qs *queryStats) merge(other *queryStats) {
	qs.latMS = append(qs.latMS, other.latMS...)
	qs.bytes = append(qs.bytes, other.bytes...)
	qs.shardMS = append(qs.shardMS, other.shardMS...)
	qs.attempted += other.attempted
	qs.failed += other.failed
	qs.slow += other.slow
	qs.notModified += other.notModified
	if qs.firstErr == "" {
		qs.firstErr = other.firstErr
	}
	for u, s := range other.sums {
		qs.noteSum(u, s)
	}
}

// ---- query_only: a working set larger than every cache ----

var queryResolutions = []string{"hour", "day", "week", "auto"}

// querySpans are the range lengths in days; the longest is the whole
// fixture.
func querySpans(days int) []int { return []int{1, 7, 30, days} }

// queryClass is one span × resolution combination.
type queryClass struct {
	span int
	res  string
}

// queryCycle returns the 16 classes in a seeded order. Each connection
// walks the cycle round-robin, so every run serves the classes in exact
// proportion: the year-span hour query is the slowest class by an order
// of magnitude, and drawing it at random would move the tail with the
// luck of the draw instead of with the program.
func queryCycle(rng *rand.Rand, days int) []queryClass {
	var cycle []queryClass
	for _, span := range querySpans(days) {
		for _, res := range queryResolutions {
			cycle = append(cycle, queryClass{span, res})
		}
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// yearStarts is how many start days a year-span request draws from. A
// 364-day span fits the 364-day fixture exactly once, which would make
// the four year-span classes one URL each — served from the response
// caches from the second cycle on. Starting on one of the first 45 days
// (and running past the end of the data) keeps the reuse distance of
// any year-span URL near 45 × 16 requests, beyond the 128-entry response
// caches and the 256-entry ETag caches of the router's clients.
const yearStarts = 45

// queryURL builds the request of class c starting on a seeded day, so
// that by construction almost nothing repeats inside a run.
func queryURL(rng *rand.Rand, c queryClass, days int) string {
	starts := days - c.span + 1
	if c.span == days {
		starts = min(yearStarts, days)
	}
	return rangeQuery(rng.Intn(starts), c.span, c.res)
}

func rangeQuery(day, span int, res string) string {
	from := entime.StudyStart.Add(time.Duration(day) * dayDuration)
	to := from.Add(time.Duration(span) * dayDuration)
	return fmt.Sprintf("/api/v1/query?from=%d&to=%d&resolution=%s", from.Unix(), to.Unix(), res)
}

// runQueryLoad drives conns closed-loop connections against base until
// stop closes: each sends its next unconditional GET when the previous
// one completes. Only requests that start while measuring is set count.
func runQueryLoad(base string, seed int64, days int, conns []*conn, stop <-chan struct{}, measuring func() bool) *queryStats {
	parts := make([]*queryStats, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := &queryStats{}
			parts[i] = qs
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			cycle := queryCycle(rng, days)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				url := queryURL(rng, cycle[k%len(cycle)], days)
				counted := measuring()
				r, err := c.get(base+url, "")
				if counted {
					qs.record(url, r, err, true)
				}
			}
		}()
	}
	wg.Wait()
	total := &queryStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// ---- mixed_steady: a dashboard revalidating a small working set ----

// dashboardURLs is the panel cycle: ranges anchored at the end of the
// fixture with the upper bound open, so every tail append the generator
// makes invalidates them. Seven panels, not six: the panels cost very
// different amounts, every run serves them in exact proportion, and a
// median over an even number of equal classes sits on the boundary
// between two of them, where it flips with the noise. With seven the
// median lies in the middle of the fourth-cheapest panel and p90 inside
// the dearest.
func dashboardURLs(end time.Time) []string {
	last := func(days int, res string) string {
		return fmt.Sprintf("/api/v1/query?from=%d&resolution=%s", end.Add(-time.Duration(days)*dayDuration).Unix(), res)
	}
	return []string{
		last(1, "hour") + "&fields=hourly",
		last(1, "hour"),
		last(7, "hour"),
		last(30, "day"),
		"/api/v1/query?resolution=week",
		"/api/v1/snapshot?fields=hourly,districts",
		"/api/v1/snapshot?top=10",
	}
}

// runDashboard cycles the panels closed-loop on one connection, each
// request revalidating with the ETag its panel last returned.
func runDashboard(base string, urls []string, c *conn, stop <-chan struct{}, measuring func() bool) *queryStats {
	qs := &queryStats{}
	etags := make([]string, len(urls))
	for i := 0; ; i = (i + 1) % len(urls) {
		select {
		case <-stop:
			return qs
		default:
		}
		counted := measuring()
		r, err := c.get(base+urls[i], etags[i])
		if err == nil && r.status == http.StatusOK {
			etags[i] = r.etag
		}
		if counted {
			qs.record(urls[i], r, err, false)
		}
	}
}

// ---- visibility probe ----

// visibleWithin is how long a sent hour may stay invisible before the
// probe books a failure and moves on: long enough that an hour held up
// by a stalled disk still counts as a (long) lag sample, not as lost.
const visibleWithin = 5 * time.Second

type probeStats struct {
	lagMS     []float64
	attempted int64
	failed    int64
	polls     int64
	firstErr  string
}

// hourlyReply is the slice of a query response the probe reads.
type hourlyReply struct {
	Snapshot struct {
		Hours []struct {
			Time  time.Time `json:"time"`
			Flows float64   `json:"flows"`
		} `json:"hours"`
	} `json:"snapshot"`
}

// runProbe measures export-to-visible lag through the router: for the
// newest simulated hour the sender announced, it polls the hour's own
// range until the response shows flows in it. It polls only while an
// hour is pending, so an idle probe puts no load on the router.
func runProbe(base string, c *conn, hours <-chan hourMark, stop <-chan struct{}, measuring func() bool) *probeStats {
	ps := &probeStats{}
	for {
		var m hourMark
		select {
		case <-stop:
			return ps
		case m = <-hours:
		}
		// Take the newest pending hour: lag of a stale mark would
		// mostly measure the probe's own queue.
	drain:
		for {
			select {
			case newer := <-hours:
				m = newer
			default:
				break drain
			}
		}
		counted := measuring()
		url := fmt.Sprintf("%s/api/v1/query?from=%d&to=%d&fields=hourly", base, m.hour.Unix(), m.hour.Add(time.Hour).Unix())
		seen, err := false, error(nil)
		var at time.Time
		for !seen && err == nil && time.Since(m.at) < visibleWithin {
			select {
			case <-stop:
				return ps
			default:
			}
			var r reply
			r, err = c.get(url, "")
			ps.polls++
			if err != nil {
				break
			}
			if r.status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", r.status, r.body)
				break
			}
			var hr hourlyReply
			if err = json.Unmarshal(r.body, &hr); err != nil {
				break
			}
			for _, h := range hr.Snapshot.Hours {
				if h.Time.Equal(m.hour) && h.Flows > 0 {
					seen, at = true, time.Now()
				}
			}
		}
		if !counted {
			continue
		}
		ps.attempted++
		switch {
		case err != nil:
			ps.failed++
			if ps.firstErr == "" {
				ps.firstErr = fmt.Sprintf("hour %s: %v", m.hour.Format(time.RFC3339), err)
			}
		case !seen:
			ps.failed++
			if ps.firstErr == "" {
				ps.firstErr = fmt.Sprintf("hour %s not visible within %s", m.hour.Format(time.RFC3339), visibleWithin)
			}
		default:
			ps.lagMS = append(ps.lagMS, ms(at.Sub(m.at)))
		}
	}
}
