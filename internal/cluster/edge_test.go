package cluster

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"testing"

	"cwatrace/internal/netflow"
)

// edgeHeaders asks for one encoding explicitly (so the transport neither
// adds gzip nor inflates it) under a fixed request id: the degraded
// envelope echoes the id, and the two encodings of one answer must
// differ in nothing else.
func edgeHeaders(acceptEncoding string) map[string]string {
	return map[string]string{"Accept-Encoding": acceptEncoding, "X-Request-Id": "edge-test"}
}

// TestRouterEdgeGzipRoundTrip pins the client edge of a routed answer:
// for every resolution and for the 206 degraded envelope, the gzip body
// inflates to exactly the identity body, both declare Vary, and HEAD
// mirrors the GET's encoding headers. The gzip body is one member (the
// edge stitches it from separately deflated chunks, see api/gzip.go),
// with nothing behind it. The floor at the end keeps the compressor
// honest: a year-span hour answer must shrink at least 4x, so a drift to
// HuffmanOnly (1.7x on such bodies) or NoCompression cannot land
// silently — and the stitching must cost no more than 3 % over what one
// BestSpeed stream makes of the same body.
func TestRouterEdgeGzipRoundTrip(t *testing.T) {
	const days = 364
	byDay := tierCapture(days)
	nodes := make([]*node, 2)
	for i := range nodes {
		i := i
		nodes[i] = newTierNode(t, days, byDay, func(r *netflow.Record) bool {
			return Owner(r, nil, len(nodes)) == i
		})
	}
	router := tierRouter(t, nodes)

	check := func(name, url string, wantStatus int) (plain, wire []byte) {
		t.Helper()
		idStatus, idHdr, identity := get(t, url, edgeHeaders("identity"))
		gzStatus, gzHdr, compressed := get(t, url, edgeHeaders("gzip"))
		if idStatus != wantStatus || gzStatus != wantStatus {
			t.Fatalf("%s: status identity=%d gzip=%d, want %d", name, idStatus, gzStatus, wantStatus)
		}
		if idHdr.Get("Vary") != "Accept-Encoding" || gzHdr.Get("Vary") != "Accept-Encoding" {
			t.Fatalf("%s: Vary identity=%q gzip=%q", name, idHdr.Get("Vary"), gzHdr.Get("Vary"))
		}
		if idHdr.Get("Content-Encoding") != "" || gzHdr.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: Content-Encoding identity=%q gzip=%q", name,
				idHdr.Get("Content-Encoding"), gzHdr.Get("Content-Encoding"))
		}
		wireReader := bytes.NewReader(compressed)
		gr, err := gzip.NewReader(wireReader)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gr.Multistream(false)
		inflated, err := io.ReadAll(gr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(inflated, identity) || wireReader.Len() != 0 {
			t.Fatalf("%s: the first gzip member holds %dB of the %dB identity body and leaves %dB behind it",
				name, len(inflated), len(identity), wireReader.Len())
		}

		// HEAD sends what its GET would, minus the body: gzip GETs stream
		// chunked, so neither carries a Content-Length.
		headStatus, headHdr, headBody := do(t, http.MethodHead, url, edgeHeaders("gzip"))
		if headStatus != wantStatus || len(headBody) != 0 {
			t.Fatalf("%s: HEAD %d with %dB body", name, headStatus, len(headBody))
		}
		for _, h := range []string{"Content-Encoding", "Content-Length", "Content-Type", "Vary", "Cache-Control"} {
			if headHdr.Get(h) != gzHdr.Get(h) {
				t.Fatalf("%s: HEAD %s %q, GET %q", name, h, headHdr.Get(h), gzHdr.Get(h))
			}
		}
		if headHdr.Get("Content-Length") != "" {
			t.Fatalf("%s: gzip HEAD declares Content-Length %q", name, headHdr.Get("Content-Length"))
		}
		return identity, compressed
	}

	var hourPlain, hourWire int
	for _, res := range []string{"hour", "day", "week"} {
		plain, wire := check(res, router.URL+"/api/v1/query?resolution="+res, http.StatusOK)
		if res == "hour" {
			// The first answer met every block for the first time and is
			// one run; the third copies every closed block from the cache.
			for i := 0; i < 2; i++ {
				plain, wire = check(res, router.URL+"/api/v1/query?resolution="+res, http.StatusOK)
			}
			hourPlain, hourWire = len(plain), len(wire)
			var single bytes.Buffer
			gw, _ := gzip.NewWriterLevel(&single, gzip.BestSpeed)
			gw.Write(plain)
			gw.Close()
			t.Logf("year-span hour body: %dB plain, %dB stitched, %dB as one stream", hourPlain, hourWire, single.Len())
			if float64(hourWire) > 1.03*float64(single.Len()) {
				t.Fatalf("year-span hour body: %dB stitched, %dB as one stream (%.3fx), want at most 1.03x",
					hourWire, single.Len(), float64(hourWire)/float64(single.Len()))
			}
		}
	}
	if hourWire*4 > hourPlain {
		t.Fatalf("year-span hour body: %dB plain, %dB gzip (%.2fx), want at least 4x",
			hourPlain, hourWire, float64(hourPlain)/float64(hourWire))
	}

	// One shard down: the 206 envelope takes the same writeBody path.
	nodes[1].ts.Close()
	check("degraded", router.URL+"/api/v1/query?resolution=hour", http.StatusPartialContent)
}
