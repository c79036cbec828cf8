package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cwatrace/internal/streaming"
	"cwatrace/internal/tier"
)

// stateSeeds fetches real shard answers — the exact path over a store
// with a live tail, and a tiered store at hour, day and week.
func stateSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	fetch := func(url string) {
		resp, body := get(t, url, identity)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != StateMediaType {
			t.Fatalf("seed %s: %d %s", url, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		seeds = append(seeds, body)
	}
	_, exact := storeServer(t)
	fetch(exact.URL + "/api/v1/snapshot?format=state")
	_, tiered := tierServer(t, 16)
	for _, res := range []string{"hour", "day", "week"} {
		fetch(tiered.URL + "/api/v1/query?format=state&resolution=" + res)
	}
	return seeds
}

// useState does to a decoded state what the router does, so a decode
// that succeeds on hostile bytes still has to survive the merge — and the
// merge has to agree with the ring it replaced: a sliding shard as wide as
// the answer says it is folds the same state to the same snapshot, and
// that snapshot goes back on the wire as the bytes FromSnapshot +
// MarshalBinary make of it.
func useState(t *testing.T, st *ShardState) {
	t.Helper()
	if w := st.State.Window(); w <= 0 || w > streaming.MaxWindowHours {
		t.Fatalf("decoded state claims a %d-hour window", w)
	}
	if (st.LongHorizon == nil) != (st.Resolution == "") {
		t.Fatalf("resolution %q with long-horizon frame present=%v", st.Resolution, st.LongHorizon != nil)
	}
	m := streaming.Fold(streaming.Config{Origin: st.Origin, WindowHours: st.State.Window()}, time.Time{}, time.Time{}, st.State)
	got := m.Snapshot()
	if got.WindowHours < st.State.Window() || got.WindowHours > streaming.MaxWindowHours {
		t.Fatalf("a %d-hour state rendered at a %d-hour window", st.State.Window(), got.WindowHours)
	}
	ring := streaming.New(streaming.Config{Origin: st.Origin, WindowHours: got.WindowHours})
	ring.MergeStored(st.State)
	if want := ring.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the range fold renders\n%+v\nthe ring\n%+v", got, want)
	}
	gotBytes, err := m.Stored().AppendBinary(nil, m.Origin())
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes, _ := streaming.FromSnapshot(got).MarshalBinary(); !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("the fold's encoder and the ring's disagree on %+v", got)
	}
	if st.LongHorizon != nil {
		b := tier.NewBuilder(st.Resolution, st.Origin)
		b.AddFrame(st.LongHorizon)
		b.Answer(nil)
	}
}

// TestShardStateRejectsDamage walks every truncation and every single
// bit flip of real shard answers through the decoder: each must be
// ErrBadState (the envelope CRC covers header and payloads), none may
// panic.
func TestShardStateRejectsDamage(t *testing.T) {
	for i, seed := range stateSeeds(t) {
		st, err := DecodeState(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		useState(t, st)
		for n := 0; n < len(seed); n++ {
			if _, err := DecodeState(seed[:n]); !errors.Is(err, ErrBadState) {
				t.Fatalf("seed %d cut to %d of %d bytes: err = %v", i, n, len(seed), err)
			}
		}
		bad := append([]byte(nil), seed...)
		for pos := range bad {
			for bit := 0; bit < 8; bit++ {
				bad[pos] ^= 1 << bit
				if _, err := DecodeState(bad); !errors.Is(err, ErrBadState) {
					t.Fatalf("seed %d, bit %d of byte %d flipped: err = %v", i, bit, pos, err)
				}
				bad[pos] ^= 1 << bit
			}
		}
		if _, err := DecodeState(append(bad, 0)); !errors.Is(err, ErrBadState) {
			t.Fatalf("seed %d with a trailing byte: err = %v", i, err)
		}
	}
}

// FuzzShardState hammers the shard-state decoder, the router's side of
// the shard→router trust boundary, with arbitrary bytes: it never
// panics, refuses with ErrBadState, and whatever it accepts merges and
// renders within streaming.MaxWindowHours.
func FuzzShardState(f *testing.F) {
	for _, seed := range stateSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:stateHeaderLen])
	}
	f.Add([]byte{})
	f.Add([]byte(`{"from":"0001-01-01T00:00:00Z","frames":3,"snapshot":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("non-codec error from arbitrary bytes: %v", err)
			}
			return
		}
		useState(t, st)
	})
}

// FuzzQueryParams hammers the raw query string of /api/v1/query — the
// client→server trust boundary — on a durable, tier-folding server, with
// and without gzip: it never panics, answers 200 or a structured 400
// envelope and nothing else, every 200 is valid JSON (or, for
// format=state, a body DecodeState accepts) under an ETag that
// revalidates to a bodyless 304, and every gzip body inflates.
func FuzzQueryParams(f *testing.F) {
	fuzzParams(f, "/api/v1/query",
		"from=2020-06-16T00:00:00Z&to=2020-06-18T00:00:00Z&resolution=hour&pretty=1",
		"from=1592265600&to=1592352000&resolution=auto",
		"from=notatime",
		"to=99999999999999999999&from=-1",
		"from=1592352000&to=1592265600",
	)
}

// FuzzSnapshotParams is FuzzQueryParams for /api/v1/snapshot, which
// shares parseParams with it but not the handler behind: the range and
// resolution parameters mean nothing here and must do no harm.
func FuzzSnapshotParams(f *testing.F) {
	fuzzParams(f, "/api/v1/snapshot",
		"fields=hourly,filters,spikes,prefixes,districts&top=1",
		"format=state&fields=hourly&top=2&pretty=1",
		"from=2020-06-16T00:00:00Z&resolution=week",
	)
}

// fuzzParams is the body of the two targets above: seeds every target
// shares plus its own, and the oracle.
func fuzzParams(f *testing.F, path string, seeds ...string) {
	for _, q := range append(seeds,
		"",
		"resolution=day",
		"resolution=week&fields=hourly&top=3",
		"format=state",
		"format=json",
		"top=-1",
		"fields=hourly,bogus",
		"resolution=fortnight",
		"pretty=true&top=00000000000000000009",
		"a=%zz&;&=&fields=%00",
	) {
		f.Add(q, true)
		f.Add(q, false)
	}
	_, ts := tierServer(f, 10)
	s := ts.Config.Handler // straight into ServeHTTP: no socket per exec
	serve := func(rawQuery string, hdr map[string]string) *httptest.ResponseRecorder {
		// Set RawQuery directly: the target is what the handlers make of
		// it, not what NewRequest's URL parser lets through.
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.URL.RawQuery = rawQuery
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}

	f.Fuzz(func(t *testing.T, rawQuery string, acceptGzip bool) {
		hdr := map[string]string{}
		if acceptGzip {
			hdr["Accept-Encoding"] = "gzip"
		}
		w := serve(rawQuery, hdr)
		body := w.Body.Bytes()
		if w.Header().Get("Content-Encoding") == "gzip" {
			if !acceptGzip {
				t.Fatalf("%q: gzip body nobody asked for", rawQuery)
			}
			gr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%q: %v", rawQuery, err)
			}
			if body, err = io.ReadAll(gr); err != nil {
				t.Fatalf("%q: gzip body does not inflate: %v", rawQuery, err)
			}
		}
		switch w.Code {
		case http.StatusBadRequest:
			decodeError(t, body)
		case http.StatusOK:
			switch w.Header().Get("Content-Type") {
			case jsonMediaType:
				if !json.Valid(body) {
					t.Fatalf("%q: 200 body is not JSON: %.200q", rawQuery, body)
				}
			case StateMediaType:
				if _, err := DecodeState(body); err != nil {
					t.Fatalf("%q: 200 state body does not decode: %v", rawQuery, err)
				}
			default:
				t.Fatalf("%q: 200 with Content-Type %q", rawQuery, w.Header().Get("Content-Type"))
			}
			etag := w.Header().Get("ETag")
			if etag == "" {
				t.Fatalf("%q: 200 on a quiescent store carries no ETag", rawQuery)
			}
			hdr["If-None-Match"] = etag
			if again := serve(rawQuery, hdr); again.Code != http.StatusNotModified || again.Body.Len() != 0 {
				t.Fatalf("%q: revalidation got %d with %dB, want bodyless 304", rawQuery, again.Code, again.Body.Len())
			}
		default:
			t.Fatalf("%q: status %d, want 200 or 400: %.200q", rawQuery, w.Code, body)
		}
	})
}
