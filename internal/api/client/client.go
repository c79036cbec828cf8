// Package client is the typed Go client for the collectord /api/v1
// surface — the one way every remote consumer (cwanalyze -addr,
// dashboards) reaches the data. It retries transient
// failures with backoff, surfaces the server's structured errors as
// *v1.Error values, and keeps a small ETag-aware local cache: repeated
// reads revalidate with If-None-Match and decode the locally cached
// body on 304, so an unchanged dashboard poll costs headers, not
// payload.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"cwatrace/internal/api"
	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/obs"
	"cwatrace/internal/store"
)

// Options tune a Client; the zero value is usable.
type Options struct {
	// HTTPClient overrides the transport (default: a dedicated client
	// with sane timeouts).
	HTTPClient *http.Client
	// Retries is how many times a transient failure (network error, 5xx)
	// is retried after the first attempt (0 = the default of 3, negative
	// = never retry).
	Retries int
	// Backoff is the base delay between retries, doubled each attempt
	// (default 100ms).
	Backoff time.Duration
}

// cacheLimit bounds the per-URL ETag cache in entries and cacheBytes in
// body bytes (256 state bodies could be 4 GiB); no body over a sixteenth
// of cacheBytes is filed. The harness's query mix keeps about 8 MB.
const (
	cacheLimit = 256
	cacheBytes = 32 << 20
)

// Client talks to one collectord API server. It is safe for concurrent
// use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration

	mu     sync.Mutex
	cache  map[string]*cachedResp
	cached int // bytes of the cached bodies
}

// cachedResp is one validated response body.
type cachedResp struct {
	etag string
	body []byte
}

// New builds a client for addr, which may be a bare host:port or a full
// http(s) URL.
func New(addr string, opts *Options) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("client: empty address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("client: bad address %q", addr)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{Timeout: 60 * time.Second},
		retries: 3,
		backoff: 100 * time.Millisecond,
		cache:   make(map[string]*cachedResp),
	}
	if opts != nil {
		if opts.HTTPClient != nil {
			c.hc = opts.HTTPClient
		}
		if opts.Retries > 0 {
			c.retries = opts.Retries
		} else if opts.Retries < 0 {
			c.retries = 0
		}
		if opts.Backoff > 0 {
			c.backoff = opts.Backoff
		}
	}
	return c, nil
}

// ReqOpts select the response shape of the cacheable endpoints.
type ReqOpts struct {
	// Fields selects snapshot sections (zero = everything).
	Fields v1.FieldSet
	// Top truncates the ranked lists to the busiest N entries (0 = all).
	Top int
	// Resolution selects the query answer resolution (hour, day, week,
	// auto; empty = the exact hourly default). Query endpoints only.
	Resolution string
}

// values renders the options as query parameters.
func (o *ReqOpts) values() url.Values {
	q := url.Values{}
	if o == nil {
		return q
	}
	if o.Fields != 0 && o.Fields != v1.AllFields {
		q.Set("fields", o.Fields.String())
	}
	if o.Top > 0 {
		q.Set("top", strconv.Itoa(o.Top))
	}
	if o.Resolution != "" {
		q.Set("resolution", o.Resolution)
	}
	return q
}

// Snapshot fetches /api/v1/snapshot.
func (c *Client) Snapshot(ctx context.Context, opts *ReqOpts) (*v1.Snapshot, error) {
	var out v1.Snapshot
	if err := c.getJSON(ctx, "/api/v1/snapshot", opts.values(), true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query fetches /api/v1/query for [from, to); zero bounds are open
// ends.
func (c *Client) Query(ctx context.Context, from, to time.Time, opts *ReqOpts) (*v1.QueryResponse, error) {
	q := opts.values()
	setBounds(q, from, to)
	var out v1.QueryResponse
	if err := c.getJSON(ctx, "/api/v1/query", q, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// setBounds renders the query range. RFC3339Nano keeps sub-second
// bounds lossless; store.ParseTime on the server accepts the fractional
// form.
func setBounds(q url.Values, from, to time.Time) {
	if !from.IsZero() {
		q.Set("from", from.Format(time.RFC3339Nano))
	}
	if !to.IsZero() {
		q.Set("to", to.Format(time.RFC3339Nano))
	}
}

// MaxStateBytes bounds one shard-state body. The largest honest one is
// streaming.MaxWindowHours of hourly bins (24 bytes each, ~4 MiB) plus
// district rows and a tier frame; a peer sending more is refused
// instead of being read to the end.
const MaxStateBytes = 16 << 20

// MaxJSONBytes bounds every other body (stats, JSON snapshot and query
// answers, error envelopes). The largest honest one is a full snapshot
// of streaming.MaxWindowHours hourly points at ~100 bytes each, some
// 17 MiB; a peer sending more is refused like an oversized state.
const MaxJSONBytes = 32 << 20

// SnapshotState fetches /api/v1/snapshot in the shard-state
// representation (see api.DecodeState) and returns the raw bytes with
// the response's strong ETag. The cluster query router is the consumer:
// it decodes and merges the state, and composes the per-shard tags into
// its cluster-wide validator, so it needs them surfaced, not just
// cached. The tag is empty when the shard sent none (validator churn);
// a 304-revalidated fetch returns the cached bytes under the same tag.
func (c *Client) SnapshotState(ctx context.Context) ([]byte, string, error) {
	return c.get(ctx, "/api/v1/snapshot", url.Values{}, true, true)
}

// QueryState is SnapshotState for /api/v1/query over [from, to) at a
// resolution (empty = the exact hourly path).
func (c *Client) QueryState(ctx context.Context, from, to time.Time, resolution string) ([]byte, string, error) {
	q := url.Values{}
	if resolution != "" {
		q.Set("resolution", resolution)
	}
	setBounds(q, from, to)
	return c.get(ctx, "/api/v1/query", q, true, true)
}

// QueryBounds is Query with string bounds in the forms every store
// consumer accepts (RFC 3339 or unix seconds, empty = open), so CLI
// flags pass through unparsed.
func (c *Client) QueryBounds(ctx context.Context, from, to string, opts *ReqOpts) (*v1.QueryResponse, error) {
	f, err := store.ParseTime(from)
	if err != nil {
		return nil, fmt.Errorf("client: from: %w", err)
	}
	t, err := store.ParseTime(to)
	if err != nil {
		return nil, fmt.Errorf("client: to: %w", err)
	}
	return c.Query(ctx, f, t, opts)
}

// Stats fetches /api/v1/stats (never cached: it changes every packet).
func (c *Client) Stats(ctx context.Context) (*v1.StatsResponse, error) {
	var out v1.StatsResponse
	if err := c.getJSON(ctx, "/api/v1/stats", nil, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /api/v1/health once (no retries — a draining 503 is an
// answer, not a failure). The response is returned for both 200 and
// 503 bodies that parse; anything else is an error.
func (c *Client) Health(ctx context.Context) (*v1.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/health", nil)
	if err != nil {
		return nil, err
	}
	setRequestID(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var h v1.HealthResponse
	if jerr := json.Unmarshal(body, &h); jerr == nil && h.Status != "" {
		return &h, nil
	}
	return nil, apiError(resp.StatusCode, body)
}

// getJSON fetches a JSON body and decodes it into out.
func (c *Client) getJSON(ctx context.Context, path string, q url.Values, cacheable bool, out any) error {
	body, _, err := c.get(ctx, path, q, cacheable, false)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// get is the shared GET path: retries, the ETag cache, and the
// error-envelope decoding. It returns the body and the response's ETag
// ("" when the server sent none — including every degraded partial
// response). state asks for the shard-state representation instead of
// JSON and refuses an answer that is anything else.
func (c *Client) get(ctx context.Context, path string, q url.Values, cacheable, state bool) ([]byte, string, error) {
	if state {
		q.Set("format", "state")
	}
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			delay := c.backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return nil, "", ctx.Err()
			case <-time.After(delay):
			}
		}
		body, etag, err := c.try(ctx, u, cacheable, state)
		if err == nil {
			return body, etag, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	return nil, "", lastErr
}

// setRequestID forwards the trace context riding the request's
// context: the request id (so one X-Request-Id appears in the edge's
// and every shard's access log) and the current span id as
// X-Trace-Parent (so the shard's root span nests under the router's
// fan-out span in the merged cross-process tree).
func setRequestID(req *http.Request) {
	if id := obs.RequestID(req.Context()); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	if sid := obs.ContextSpanID(req.Context()); sid != 0 {
		req.Header.Set(obs.TraceParentHeader, obs.FormatSpanID(sid))
	}
}

// try runs one conditional GET against url.
func (c *Client) try(ctx context.Context, url string, cacheable, state bool) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	setRequestID(req)
	if state {
		// State is dense binary travelling one hop inside a cluster:
		// compressing it costs both ends more than the bytes are worth.
		// An explicit Accept-Encoding also switches off the transport's
		// transparent gzip, whichever http.Client the caller injected.
		req.Header.Set("Accept-Encoding", "identity")
	}
	var prior *cachedResp
	if cacheable {
		c.mu.Lock()
		prior = c.cache[url]
		c.mu.Unlock()
		if prior != nil {
			req.Header.Set("If-None-Match", prior.etag)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", &transportError{err}
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusNotModified {
		if prior == nil {
			// A 304 we never asked for; treat as transient.
			return nil, "", &transportError{fmt.Errorf("unsolicited 304 from %s", url)}
		}
		return prior.body, prior.etag, nil
	}
	limit := MaxJSONBytes
	if state {
		limit = MaxStateBytes
	}
	body, err := c.readBody(resp, limit)
	if err != nil {
		return nil, "", err
	}
	// 206 Partial Content is a clustered router's documented degraded
	// envelope: a valid typed body (with a Degraded marker), not an
	// error. It never carries an ETag and must not enter the cache.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return nil, "", apiError(resp.StatusCode, body)
	}
	if state {
		// Not worth a retry either. A shard from before the state
		// representation ignores the unknown parameter and answers JSON.
		if ct := resp.Header.Get("Content-Type"); ct != api.StateMediaType {
			return nil, "", fmt.Errorf("client: %s answered %q, not %s (a shard that predates the state representation? upgrade shards before routers)",
				c.base, ct, api.StateMediaType)
		}
	}
	etag := resp.Header.Get("ETag")
	if cacheable && resp.StatusCode == http.StatusOK && etag != "" && len(body) <= cacheBytes/16 {
		c.mu.Lock()
		// A newer answer replaces the URL's own entry; a cache that is
		// full gives others (any ones) up until the new body fits.
		if old, have := c.cache[url]; have {
			c.cached -= len(old.body)
			delete(c.cache, url)
		}
		for k, e := range c.cache {
			if len(c.cache) < cacheLimit && c.cached+len(body) <= cacheBytes {
				break
			}
			c.cached -= len(e.body)
			delete(c.cache, k)
		}
		c.cache[url] = &cachedResp{etag: etag, body: body}
		c.cached += len(body)
		c.mu.Unlock()
	}
	return body, etag, nil
}

// readBody reads a response body of at most limit bytes. A declared
// Content-Length (every identity-coded answer of this API carries one,
// shard state included) sizes the buffer once, and is held to: fewer
// bytes are an unexpected EOF, more are refused — a state cut to the
// length its header lied about is never returned. Without one (chunked,
// or decompressed by the transport) the body is read until it ends or
// passes the limit. Size refusals are not worth a retry — the peer would
// say the same again — so only read failures are transport errors.
func (c *Client) readBody(resp *http.Response, limit int) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 {
		body, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
		if err != nil {
			return nil, &transportError{err}
		}
		n = int64(len(body))
		if n <= int64(limit) {
			return body, nil
		}
	}
	if n > int64(limit) {
		return nil, fmt.Errorf("client: response from %s exceeds %d bytes", c.base, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, &transportError{err}
	}
	if extra, _ := resp.Body.Read(make([]byte, 1)); extra > 0 {
		return nil, fmt.Errorf("client: response from %s is longer than the %d bytes it declared", c.base, n)
	}
	return body, nil
}

// transportError marks network-level failures (always retryable).
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// apiError converts a non-200 response into a *v1.Error, synthesizing
// an envelope for bodies that carry none (legacy text errors, proxies).
func apiError(status int, body []byte) error {
	var env v1.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		env.Error.Status = status
		return env.Error
	}
	return &v1.Error{
		Code:    http.StatusText(status),
		Message: strings.TrimSpace(string(body)),
		Status:  status,
	}
}

// retryable reports whether another attempt can help: transport
// failures and server-side 5xx, never client-side 4xx.
func retryable(err error) bool {
	if _, ok := err.(*transportError); ok {
		return true
	}
	if apiErr, ok := err.(*v1.Error); ok {
		return apiErr.Status >= 500
	}
	return false
}
