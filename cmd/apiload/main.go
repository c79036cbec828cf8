// Command apiload is the concurrent load generator for the collectord
// analytics API: it hammers one endpoint with N workers for a fixed
// duration and reports request throughput, status breakdown and bytes
// transferred. With -conditional each worker revalidates with
// If-None-Match after its first response, measuring the conditional-GET
// fast path (304 Not Modified, zero body bytes) against full reads.
//
// Usage:
//
//	apiload -addr HOST:PORT [-endpoint snapshot|query] [-from T] [-to T]
//	        [-resolution hour|day|week|auto] [-fields hourly,prefixes,...]
//	        [-top N] [-c workers] [-duration D] [-conditional]
//
// -from/-to take RFC 3339 timestamps (2020-06-16T00:00:00Z) or unix
// seconds (1592265600), like every other store consumer.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/store"
	"cwatrace/internal/tier"
)

func main() {
	var (
		addr        = flag.String("addr", "", "collectord API address, e.g. 127.0.0.1:8055")
		endpoint    = flag.String("endpoint", "snapshot", "endpoint to load: snapshot or query")
		fromArg     = flag.String("from", "", "query range start (RFC 3339 or unix seconds; empty = store origin)")
		toArg       = flag.String("to", "", "query range end, exclusive (RFC 3339 or unix seconds; empty = end of history)")
		resolution  = flag.String("resolution", "", "query answer resolution: hour (exact, default), day, week or auto")
		fields      = flag.String("fields", "", "comma-separated field selection ("+v1.FieldList()+"; empty = all)")
		top         = flag.Int("top", 0, "top-K truncation of ranked lists (0 = all)")
		workers     = flag.Int("c", 8, "concurrent workers")
		duration    = flag.Duration("duration", 5*time.Second, "measurement duration")
		conditional = flag.Bool("conditional", false, "revalidate with If-None-Match after the first response")
	)
	flag.Parse()

	if *addr == "" {
		fatal("need -addr; see -h")
	}

	path, err := buildPath(*endpoint, *fromArg, *toArg, *resolution, *fields, *top)
	if err != nil {
		fatal("%v", err)
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	res := run(base+path, *workers, *duration, *conditional)
	fmt.Print(res.render(fmt.Sprintf("%s c=%d conditional=%v", path, *workers, *conditional)))
}

// buildPath assembles the request path, validating the parameters the
// way the server would.
func buildPath(endpoint, from, to, resolution, fields string, top int) (string, error) {
	if _, err := v1.ParseFields(fields); err != nil {
		return "", err
	}
	if _, err := store.ParseTime(from); err != nil {
		return "", fmt.Errorf("-from: %w", err)
	}
	if _, err := store.ParseTime(to); err != nil {
		return "", fmt.Errorf("-to: %w", err)
	}
	if _, err := tier.ParseResolution(resolution); err != nil {
		return "", fmt.Errorf("-resolution: %w", err)
	}
	var params []string
	add := func(k, v string) {
		if v != "" {
			params = append(params, k+"="+v)
		}
	}
	switch endpoint {
	case "snapshot":
		if from != "" || to != "" || resolution != "" {
			return "", fmt.Errorf("-from/-to/-resolution only apply to -endpoint query")
		}
	case "query":
		add("from", from)
		add("to", to)
		add("resolution", resolution)
	default:
		return "", fmt.Errorf("unknown endpoint %q (want snapshot or query)", endpoint)
	}
	add("fields", fields)
	if top > 0 {
		add("top", fmt.Sprint(top))
	}
	path := "/api/v1/" + endpoint
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	return path, nil
}

// result aggregates one load run.
type result struct {
	requests    uint64
	full        uint64 // 200 with body
	notModified uint64 // 304
	failures    uint64
	bytes       uint64
	elapsed     time.Duration
}

func (r result) render(label string) string {
	var b strings.Builder
	rate := float64(r.requests) / r.elapsed.Seconds()
	fmt.Fprintf(&b, "%s\n", label)
	fmt.Fprintf(&b, "  %d requests in %.2fs = %.0f req/s\n", r.requests, r.elapsed.Seconds(), rate)
	fmt.Fprintf(&b, "  200: %d, 304: %d, failures: %d, %.1f MB transferred (%.1f MB/s)\n",
		r.full, r.notModified, r.failures,
		float64(r.bytes)/1e6, float64(r.bytes)/1e6/r.elapsed.Seconds())
	return b.String()
}

// run drives workers against url until the duration elapses.
func run(url string, workers int, duration time.Duration, conditional bool) result {
	tr := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	var (
		res      result
		requests atomic.Uint64
		full     atomic.Uint64
		nm       atomic.Uint64
		failures atomic.Uint64
		bytes    atomic.Uint64
	)
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for time.Now().Before(deadline) {
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					failures.Add(1)
					return
				}
				if conditional && etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := client.Do(req)
				if err != nil {
					failures.Add(1)
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				bytes.Add(uint64(n))
				switch resp.StatusCode {
				case http.StatusOK:
					full.Add(1)
					if conditional {
						etag = resp.Header.Get("ETag")
					}
				case http.StatusNotModified:
					nm.Add(1)
				default:
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.requests = requests.Load()
	res.full = full.Load()
	res.notModified = nm.Load()
	res.failures = failures.Load()
	res.bytes = bytes.Load()
	return res
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apiload: "+format+"\n", args...)
	os.Exit(1)
}
