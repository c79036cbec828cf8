package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/core"
	"cwatrace/internal/entime"
	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
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
// writeBody, with gzip accepted and refused. The bodies come out of
// renderBody: gzip is the steady state, a body whose closed blocks the
// block cache holds and whose deflate is therefore copied, and gzip-cold
// one that met every block for the first time and is compressed as one
// run (the one-day body has no closed block and no such case).
// wire_B/op next to ns/op is the trade the compression level and the
// stitching make; the harness measures the same path end to end.
func BenchmarkWriteBody(b *testing.B) {
	const days = 364
	st, ts := tierServer(b, days)
	s := ts.Config.Handler.(*Server)
	spans := []struct {
		name     string
		from, to time.Time
	}{
		{"1d", entime.StudyStart, entime.StudyStart.AddDate(0, 0, 1)},
		{"364d", time.Time{}, time.Time{}},
	}
	for _, span := range spans {
		res, err := st.QueryResolution(span.from, span.to, tier.ResolutionHour)
		if err != nil {
			b.Fatal(err)
		}
		resp := &v1.QueryResponse{From: res.From, To: res.To, Frames: res.Frames,
			Snapshot: v1.NewSnapshot(res.Snapshot(), v1.AllFields, 0)}
		cold, err := renderBody(resp, false, 0, newBlockCache(blockBytes))
		if err != nil {
			b.Fatal(err)
		}
		if len(cold.body) < gzipMinBytes {
			b.Fatalf("%s body is %d B, too small to compress", span.name, len(cold.body))
		}
		warm := cold
		for i := 0; i < 2; i++ { // a block is kept from its second sighting on
			if warm, err = renderBody(resp, false, 0, s.blocks); err != nil {
				b.Fatal(err)
			}
		}
		for _, enc := range []string{"gzip", "gzip-cold", "identity"} {
			body := warm
			if enc == "gzip-cold" {
				if body = cold; len(warm.cuts) == 0 {
					continue
				}
			}
			b.Run(span.name+"/"+enc, func(b *testing.B) {
				r := httptest.NewRequest(http.MethodGet, "/api/v1/query", nil)
				r.Header.Set("Accept-Encoding", strings.TrimSuffix(enc, "-cold"))
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
// harness's panels) from value to cached bytes — in the steady state of
// a polled panel, its closed blocks kept and spliced and the body
// rendered in room sized by the last one, and cold, every row rendered.
// B/op beside the body size is the memory fix — one allocation per body,
// of its size — and allocs/op is what the append encoder leaves of
// encoding/json.
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
		for _, cold := range []bool{false, true} {
			name, size := fmt.Sprintf("%dh", hours), 0
			var blocks v1.Blocks
			if cold {
				name += "-cold"
			} else {
				blocks = newBlockCache(blockBytes)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < 3; i++ { // a block is kept from its second sighting on
					body, err := renderBody(resp, false, size, blocks)
					if err != nil {
						b.Fatal(err)
					}
					size = len(body.body)
				}
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := renderBody(resp, false, size, blocks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(size), "body_B")
			})
		}
	}
}
