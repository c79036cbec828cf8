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
	"cwatrace/internal/geo"
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
		cold, err := renderBody(resp, false, newBlockCache(blockBytes))
		if err != nil {
			b.Fatal(err)
		}
		if len(cold.body) < gzipMinBytes {
			b.Fatalf("%s body is %d B, too small to compress", span.name, len(cold.body))
		}
		warm := cold
		for i := 0; i < 2; i++ { // a block is kept from its second sighting on
			if warm, err = renderBody(resp, false, s.blocks); err != nil {
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

// hourAnswer is an hour-resolution answer of the given span in the
// shape the harness's panels ask for: hours from the study start, ten
// top prefixes and the 401 districts of geo.Germany(), umlauts and all.
func hourAnswer(hours int) *v1.QueryResponse {
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
	for i, d := range geo.Germany().Districts() {
		src.Districts = append(src.Districts, streaming.DistrictCount{ID: d.ID, Name: d.Name, StateCode: d.StateCode, Flows: uint64(i)})
	}
	return &v1.QueryResponse{From: entime.StudyStart, Frames: hours / 24, TailIncluded: true, Snapshot: v1.NewSnapshot(src, v1.AllFields, 0)}
}

// BenchmarkMarshalBody is the render stage in isolation: an
// hour-resolution answer of one day, one month and one year (hourAnswer)
// from value to cached bytes — in the steady state of a polled panel,
// its closed blocks kept and spliced, and cold, every row rendered.
// Either way the body is rendered in scratch and copied out once: B/op
// beside body_B is that one allocation of the body's size, and
// allocs/op is what the append encoder leaves of encoding/json.
func BenchmarkMarshalBody(b *testing.B) {
	for _, hours := range []int{24, 720, 8736} {
		resp := hourAnswer(hours)
		for _, cold := range []bool{false, true} {
			name := fmt.Sprintf("%dh", hours)
			var blocks v1.Blocks
			if cold {
				name += "-cold"
			} else {
				blocks = newBlockCache(blockBytes)
			}
			b.Run(name, func(b *testing.B) {
				var body built
				for i := 0; i < 3; i++ { // a block is kept from its second sighting on
					var err error
					if body, err = renderBody(resp, false, blocks); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(body.body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := renderBody(resp, false, blocks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(body.body)), "body_B")
			})
		}
	}
}
