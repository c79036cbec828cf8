package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cwatrace/internal/entime"
)

// wireCounter is a ResponseWriter that counts body bytes and keeps
// nothing, so the benchmark measures writeBody and not a recorder's
// buffer growth.
type wireCounter struct {
	h http.Header
	n int
}

func (w *wireCounter) Header() http.Header         { return w.h }
func (w *wireCounter) WriteHeader(int)             {}
func (w *wireCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkWriteBody is the client edge in isolation: one rendered
// hour-resolution answer (a 1-day panel, a year-span one) through
// writeBody, with gzip accepted and refused. wire_B/op next to ns/op is
// the trade the compression level makes; the harness measures the same
// path end to end.
func BenchmarkWriteBody(b *testing.B) {
	const days = 364
	_, ts := tierServer(b, days)
	s := ts.Config.Handler.(*Server)
	spans := []struct {
		name  string
		query string
	}{
		{"1d", fmt.Sprintf("?from=%d&to=%d", entime.StudyStart.Unix(), entime.StudyStart.AddDate(0, 0, 1).Unix())},
		{"364d", ""},
	}
	for _, span := range spans {
		_, body := get(b, ts.URL+"/api/v1/query"+span.query, nil)
		if len(body) < gzipMinBytes {
			b.Fatalf("%s body is %d B, too small to compress", span.name, len(body))
		}
		for _, enc := range []string{"gzip", "identity"} {
			b.Run(span.name+"/"+enc, func(b *testing.B) {
				r := httptest.NewRequest(http.MethodGet, "/api/v1/query", nil)
				r.Header.Set("Accept-Encoding", enc)
				w := &wireCounter{h: http.Header{}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.writeBody(w, r, http.StatusOK, jsonMediaType, body)
				}
				b.ReportMetric(float64(w.n)/float64(b.N), "wire_B/op")
			})
		}
	}
}
