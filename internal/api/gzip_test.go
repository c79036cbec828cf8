package api

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
)

// stitched renders body as a stitched member and holds it to gzip's own
// reader: exactly one member (a response must not be several), which
// decodes to body — CRC and length are checked by the reader — and
// accounts for every byte.
func stitched(body []byte, cuts []int, cache *blockCache) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	member := bytes.Clone(d.member(body, cuts, cache))
	r := bytes.NewReader(member)
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	got, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, body) || r.Len() != 0 {
		return nil, fmt.Errorf("member of %d bytes decodes to %d bytes (want %d), %d bytes unread; cuts %v", len(member), len(got), len(body), r.Len(), cuts)
	}
	return member, nil
}

func stitch(t testing.TB, body []byte, cuts []int, cache *blockCache) []byte {
	t.Helper()
	member, err := stitched(body, cuts, cache)
	if err != nil {
		t.Fatal(err)
	}
	return member
}

// hourRows is n rows of an hours array as the append encoder writes
// them, each followed by its comma.
func hourRows(from, n int) []byte {
	var b []byte
	for h := from; h < from+n; h++ {
		b = fmt.Appendf(b, `{"hour":%d,"time":"2020-06-%02dT%02d:00:00+02:00","flows":%d,"bytes":%d},`, h, 1+h/24%28, h%24, 1000+h%97, 1_500_000+1009*h)
	}
	return b
}

// FuzzStitchedGzip holds the stitched member to gzip's own reader: for
// any body and any ascending cut list, on a cold block cache (every
// block met for the first time, compressed in runs), on the one that
// leaves (every block compressed alone and kept) and on the warm one
// (every block copied), one member decodes to the body, CRC and length
// included, and uses every byte. Then the closed blocks are served out
// of the cache to a different body — other head, other tail, other
// offsets — which must decode to its own text: a deflated block depends
// on its text alone.
func FuzzStitchedGzip(f *testing.F) {
	steps := func(cuts ...int) (b []byte) {
		last := 0
		for _, c := range cuts {
			b, last = binary.LittleEndian.AppendUint16(b, uint16(c-last)), c
		}
		return b
	}
	head := []byte(`{"snapshot":{"hours":[`)
	block := len(hourRows(128, 128))
	f.Add([]byte("no cuts at all"), steps())
	f.Add([]byte("a lone cut closes nothing"), steps(7))
	f.Add(append(append(head, hourRows(128, 300)...), `],"late":3}`...), steps(len(head), len(head)+block, len(head)+2*block))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 4096), steps(0, 0, 200, 207, 30000, 30001, 32768))
	f.Add([]byte{0, 1, 2, 3}, steps(1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, body, steps []byte) {
		// Two bytes a step: how far the next cut lies behind the last.
		// Cuts may coincide, and sit at either end of the body.
		var cuts []int
		for at := 0; len(steps) >= 2; steps = steps[2:] {
			if at += int(binary.LittleEndian.Uint16(steps)); at > len(body) {
				break
			}
			cuts = append(cuts, at)
		}
		cache := newBlockCache(blockBytes)
		stitch(t, body, cuts, cache)
		kept := stitch(t, body, cuts, cache)
		if warm := stitch(t, body, cuts, cache); !bytes.Equal(warm, kept) {
			t.Fatal("the member of copied blocks differs from the one they were kept from")
		}
		if len(cuts) < 2 {
			return
		}
		first, last := cuts[0], cuts[len(cuts)-1]
		other := append([]byte("another head, of another length"), body[first:last]...)
		other = append(other, "and a tail"...)
		moved := make([]int, len(cuts))
		for i, c := range cuts {
			moved[i] = c - first + len("another head, of another length")
		}
		stitch(t, other, moved, cache)
	})
}

// TestStitchedBlocksAreReused is the saving itself, on rows shaped like
// the real ones. A block met for the first time is compressed with what
// adjoins it and leaves only its key; met again it is compressed alone
// and kept; and then another body that shares it (a wider range, other
// text around the array) is served the very bytes.
func TestStitchedBlocksAreReused(t *testing.T) {
	render := func(head string, from, n int) (body []byte, cuts []int) {
		body = append(body, head...)
		for h := from; h < from+n; h++ {
			if h%128 == 0 {
				cuts = append(cuts, len(body))
			}
			body = append(body, hourRows(h, 1)...)
		}
		return append(body, `"census":{}}`...), cuts
	}
	cache := newBlockCache(blockBytes)
	body, cuts := render(`{"from":"a","hours":[`, 100, 600) // blocks 128, 256, 384, 512 closed
	first := stitch(t, body, cuts, cache)
	if whole := stitch(t, body, nil, cache); !bytes.Equal(first, whole) {
		t.Fatal("blocks met for the first time were not compressed as one run with the rest")
	}
	if _, deflated, met := cache.get(hourRows(128, 128)); !met || deflated != nil {
		t.Fatalf("after one sighting: met %t, %d bytes kept", met, len(deflated))
	}
	again := stitch(t, body, cuts, cache)
	body, cuts = render(`{"from":"an earlier one","frames":7,"hours":[`, 3, 698)
	other := stitch(t, body, cuts, cache)
	for _, hour := range []int{128, 256, 384, 512} {
		_, deflated, _ := cache.get(hourRows(hour, 128))
		if deflated == nil {
			t.Fatalf("the block of hour %d is not cached after two sightings", hour)
		}
		if !bytes.Contains(again, deflated) || !bytes.Contains(other, deflated) {
			t.Fatalf("the block of hour %d was not stitched into both members", hour)
		}
	}
}

// TestBlockCacheComparesTheText pins the hit rule: a block filed under
// the hash of another text — a collision — is not served for it.
func TestBlockCacheComparesTheText(t *testing.T) {
	cache := newBlockCache(blockBytes)
	asked, filed := hourRows(0, 128), hourRows(128, 128)
	key, deflated, met := cache.get(asked)
	if deflated != nil || met {
		t.Fatal("hit on an empty cache")
	}
	cache.insertLocked(key, block{filed, []byte("deflate of the other text")})
	if _, deflated, met := cache.get(asked); deflated != nil || !met {
		t.Fatalf("served %q on the hash alone (met %t)", deflated, met)
	}
	stitch(t, append(append([]byte("head"), asked...), "tail"...), []int{4, 4 + len(asked)}, cache)
	if _, deflated, _ := cache.get(asked); deflated == nil {
		t.Fatal("the colliding entry was not replaced by the text that was asked for")
	}
}

// TestBlockCacheIsBounded fills the cache far past its bound: it never
// holds more than that, keeps what is still asked for through any number
// of generations, and refuses a block that alone would fill one.
func TestBlockCacheIsBounded(t *testing.T) {
	const bound = 64 << 10
	cache := newBlockCache(bound)
	hot := hourRows(0, 16)
	key, _, _ := cache.get(hot)
	kept := cache.keep(key, hot)
	for i := 1; i < 2000; i++ {
		text := hourRows(i*16, 16)
		if key, _, _ := cache.get(text); i%2 == 0 { // half stay keys met once
			cache.keep(key, text)
		}
		if _, deflated, _ := cache.get(hot); !bytes.Equal(deflated, kept) {
			t.Fatalf("after %d inserts the block asked for every time is gone", i)
		}
		held := 0
		for _, gen := range []map[uint64]block{cache.young, cache.old} {
			for _, b := range gen {
				held += b.size()
			}
		}
		if held > bound || cache.youngBytes > bound/2 {
			t.Fatalf("after %d inserts the cache holds %d bytes (%d young), bound %d", i, held, cache.youngBytes, bound)
		}
	}
	big := bytes.Repeat([]byte("x"), bound/2+1)
	key, _, _ = cache.get(big)
	cache.keep(key, big)
	if cache.young[key].text != nil {
		t.Fatal("a block larger than a generation was filed")
	}
}

// TestBlockCacheConcurrent drives one cache from several goroutines over
// overlapping bodies small enough to force generations to turn over; run
// under -race (make race) it is the check of the cache's locking, and
// every member must still decode to its body.
func TestBlockCacheConcurrent(t *testing.T) {
	cache := newBlockCache(48 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var body []byte
				var cuts []int
				for h := (g*7 + i) % 40; h < 64; h++ {
					if h%4 == 0 {
						cuts = append(cuts, len(body))
					}
					body = append(body, hourRows(h*8, 8)...)
				}
				if _, err := stitched(body, cuts, cache); err != nil {
					t.Errorf("goroutine %d, body %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
