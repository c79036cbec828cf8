package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/streaming"
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

// BenchmarkMarshalBody is the render stage in isolation: an
// hour-resolution answer of one day, one month and one year (the
// harness's panels) from value to cached bytes. B/op beside the body size
// is the memory fix — one exact-size allocation per body — and allocs/op
// is what the append encoder leaves of encoding/json.
func BenchmarkMarshalBody(b *testing.B) {
	for _, hours := range []int{24, 720, 8736} {
		src := &streaming.Snapshot{
			Origin:      entime.StudyStart,
			WindowHours: hours,
			Census:      core.Census{Total: 3 * hours, Kept: 2 * hours, Dropped: map[core.DropReason]int{core.DropNotTCP: hours}},
			Located:     uint64(hours),
		}
		for h := 0; h < hours; h++ {
			src.Hours = append(src.Hours, streaming.HourPoint{Hour: h, Time: entime.StudyStart.Add(time.Duration(h) * time.Hour),
				Flows: float64(1000 + h%97), Bytes: float64(1_500_000 + 1009*h)})
		}
		for i := 0; i < 10; i++ {
			src.TopPrefixes = append(src.TopPrefixes, streaming.PrefixCount{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24), Flows: uint64(900 - i)})
		}
		for i := 0; i < 401; i++ {
			src.Districts = append(src.Districts, streaming.DistrictCount{ID: fmt.Sprintf("%05d", 1001+i), Name: fmt.Sprintf("Landkreis %d", i), StateCode: "NW", Flows: uint64(i)})
		}
		resp := &v1.QueryResponse{From: entime.StudyStart, Frames: hours / 24, TailIncluded: true, Snapshot: v1.NewSnapshot(src, v1.AllFields, 0)}
		b.Run(fmt.Sprintf("%dh", hours), func(b *testing.B) {
			body, err := marshalBody(resp, false)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if body, err = marshalBody(resp, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B")
		})
	}
}
