package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"cwatrace/internal/ingest"
	"cwatrace/internal/obs"
)

// TestAPISmoke is the end-to-end drill behind `make api-smoke` and the CI
// api-smoke step, run against the daemon as an operator starts it: a
// collectord without -data-dir (its store in a private temp dir) fed the
// smoke trace over NFv9/UDP by ingest.Replay. Under ingest every
// snapshot and range query answers 200 with an ETag. Once the replay has
// drained, the counters conserve records (records == processed +
// dropped_records, no sink errors, and the snapshot's census.total is
// processed − shard_filtered); health is ok; the snapshot answers 200
// with a strong ETag that revalidates to a 304 with zero body bytes;
// field selection keeps the series and drops the other sections; and
// /metrics carries the store's and the pipeline's families and lints
// clean. SIGTERM exits cleanly and removes the temp dir.
func TestAPISmoke(t *testing.T) {
	bin := buildCollectord(t)
	res := smokeTrace(t)

	proc, udp, httpAddr := startCollectord(t, bin, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-workers", "2")
	dir, _, _ := strings.Cut(proc.awaitLine("collectord: store ", time.Second), " recovered ")
	if fi, err := os.Stat(dir); dir == "" || err != nil || !fi.IsDir() {
		t.Fatalf("store dir %q from %q: %v", dir, proc.linesCopy(), err)
	}
	base := "http://" + httpAddr

	replayed := make(chan error, 1)
	var sent ingest.ReplayStats
	go func() {
		var err error
		sent, err = ingest.Replay([]string{udp}, res.Records, ingest.ReplayConfig{Sources: 4, RecordsPerSecond: 5000})
		replayed <- err
	}()
	for polls := 0; ; polls++ {
		select {
		case err := <-replayed:
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if polls < 3 {
				t.Fatalf("only %d polls under ingest", polls)
			}
		default:
			for _, path := range []string{"/api/v1/snapshot", "/api/v1/query"} {
				if resp, _ := smokeGet(t, base+path, ""); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
					t.Fatalf("%s under ingest: status %d, ETag %q", path, resp.StatusCode, resp.Header.Get("ETag"))
				}
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		break
	}

	// The drain: every datagram the replay sent is in, or the counters
	// stay put for three polls (loopback UDP makes no delivery promise;
	// the identities below hold either way).
	var in ingestStats
	for stable, deadline := 0, time.Now().Add(20*time.Second); stable < 3; time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingest counters never settled: %+v", in)
		}
		var got struct {
			Ingest ingestStats `json:"ingest"`
		}
		resp, body := smokeGet(t, base+"/api/v1/stats", "")
		if err := json.Unmarshal(body, &got); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("stats: %d %v", resp.StatusCode, err)
		}
		if got.Ingest == in {
			stable++
		} else {
			stable = 0
		}
		in = got.Ingest
		if in.Records == uint64(sent.Records) && in.Records == in.Processed+in.DroppedRecords {
			break
		}
	}
	t.Logf("sent %d records, collector counted %+v", sent.Records, in)
	if in.Records == 0 || in.Records != in.Processed+in.DroppedRecords {
		t.Fatalf("records %d != processed %d + dropped %d", in.Records, in.Processed, in.DroppedRecords)
	}
	if in.SinkErrors != 0 {
		t.Fatalf("%d sink errors", in.SinkErrors)
	}

	// Health: the daemon at rest must report ok.
	resp, body := smokeGet(t, base+"/api/v1/health", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("health: %d %q", resp.StatusCode, body)
	}

	// Full snapshot: 200 with a strong ETag and compact JSON whose census
	// counts every record the store was handed.
	resp, body = smokeGet(t, base+"/api/v1/snapshot", "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("snapshot: %d with %dB", resp.StatusCode, len(body))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("snapshot ETag %q, want a strong one", etag)
	}
	var snap struct {
		Hours  []json.RawMessage `json:"hours"`
		Census *struct {
			Total uint64 `json:"total"`
		} `json:"census"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot is not v1 JSON: %v", err)
	}
	if len(snap.Hours) == 0 || snap.Census == nil {
		t.Fatalf("snapshot after the replay is empty: %.200s", body)
	}
	if want := in.Processed - in.ShardFiltered; snap.Census.Total != want {
		t.Fatalf("census total %d != processed %d - shard_filtered %d", snap.Census.Total, in.Processed, in.ShardFiltered)
	}

	// The conditional round trip at rest: If-None-Match must yield 304
	// and zero body bytes.
	resp, body = smokeGet(t, base+"/api/v1/snapshot", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", resp.Header.Get("ETag"), etag)
	}

	// Field selection keeps the series and drops the other sections.
	resp, sub := smokeGet(t, base+"/api/v1/snapshot?fields=hourly", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fields=hourly: %d", resp.StatusCode)
	}
	var subSnap struct {
		Hours  []json.RawMessage `json:"hours"`
		Census json.RawMessage   `json:"census"`
	}
	if err := json.Unmarshal(sub, &subSnap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(subSnap.Hours, snap.Hours) || subSnap.Census != nil {
		t.Fatalf("fields=hourly: %d hours (full: %d), census present=%v", len(subSnap.Hours), len(snap.Hours), subSnap.Census != nil)
	}

	resp, page := smokeGet(t, base+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	exp, errs := obs.Lint(string(page))
	for _, e := range errs {
		t.Errorf("exposition lint: %v", e)
	}
	for _, name := range []string{"store_frames", "store_tail_records", "ingest_records_total"} {
		if _, ok := exp.Value(name, ""); !ok {
			t.Errorf("/metrics misses %s", name)
		}
	}

	// Clean shutdown on SIGTERM, and nothing of the temp store left.
	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("collectord exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collectord did not exit after SIGTERM")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("store dir %s still there after SIGTERM: %v", dir, err)
	}
}

// ingestStats is the part of /api/v1/stats the drill's identities read.
type ingestStats struct {
	Records        uint64 `json:"records"`
	Processed      uint64 `json:"processed"`
	DroppedRecords uint64 `json:"dropped_records"`
	ShardFiltered  uint64 `json:"shard_filtered"`
	SinkErrors     uint64 `json:"sink_errors"`
}

// smokeGet runs one GET, optionally conditional.
func smokeGet(t *testing.T, url, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
