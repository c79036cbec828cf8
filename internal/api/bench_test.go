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
// writeBody, with gzip accepted and refused. gzip and identity write a
// kept body, the response cache's from a question's second sighting on:
// its closed blocks are kept too, so their deflate is copied. gzip-first
// writes a first sighting, from the room it was rendered in, with no
// copy made: it met every block for the first time and is compressed as
// one run (the one-day body has no closed block and no such case).
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
		first, err := renderBody(nil, resp, false, newBlockCache(blockBytes))
		if err != nil {
			b.Fatal(err)
		}
		if len(first.body) < gzipMinBytes {
			b.Fatalf("%s body is %d B, too small to compress", span.name, len(first.body))
		}
		var again built
		for i := 0; i < 2; i++ { // a block is kept from its second sighting on
			if again, err = renderBody(nil, resp, false, s.blocks); err != nil {
				b.Fatal(err)
			}
		}
		for _, enc := range []string{"gzip", "gzip-first", "identity"} {
			body := kept(again)
			if enc == "gzip-first" {
				if body = first; len(again.cuts) == 0 {
					continue
				}
			}
			b.Run(span.name+"/"+enc, func(b *testing.B) {
				r := httptest.NewRequest(http.MethodGet, "/api/v1/query", nil)
				r.Header.Set("Accept-Encoding", strings.TrimSuffix(enc, "-first"))
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
// from value to bytes — in the steady state of a polled panel, its
// closed blocks kept and spliced, and cold, every row rendered. The body
// is rendered in room an earlier render left: first is a question's
// first sighting, written from that room, and allocates nothing of the
// body's size; kept adds the one copy the response cache makes of a
// body whose question came back, so its B/op is body_B. allocs/op is
// what the append encoder leaves of encoding/json.
func BenchmarkMarshalBody(b *testing.B) {
	defer func() { keptSink = built{} }()
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
			var room []byte
			for i := 0; i < 3; i++ { // a block is kept from its second sighting on
				body, err := renderBody(room[:0], resp, false, blocks)
				if err != nil {
					b.Fatal(err)
				}
				room = body.body
			}
			for _, keep := range []bool{false, true} {
				b.Run(name+map[bool]string{false: "/first", true: "/kept"}[keep], func(b *testing.B) {
					b.SetBytes(int64(len(room)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body, err := renderBody(room[:0], resp, false, blocks)
						if err != nil {
							b.Fatal(err)
						}
						if keep {
							keptSink = kept(body)
						}
					}
					b.ReportMetric(float64(len(room)), "body_B")
				})
			}
		}
	}
}

// keptSink holds BenchmarkMarshalBody's copies, so that none is optimized away.
var keptSink built
