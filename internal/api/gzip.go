package api

// The gzip edge. A dashboard polls year-span bodies whose hours rows are,
// but for the last few, the bytes of the previous poll, so a gzip
// response is stitched: one standard member whose deflate chunks are the
// stretches between the body's cuts (v1.AppendJSON), each compressed on
// its own and kept for the next body that holds the same text
// (DESIGN.md, "A closed block is kept, not deflated per poll").

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"hash/maphash"
	"sync"
)

var (
	// gzipHeader is what compress/gzip writes at BestSpeed: deflate, no
	// name, no mtime, XFL "fastest", OS unknown.
	gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}
	// finalBlock is an empty stored block with the final bit set; every
	// chunk ends byte-aligned, so it may follow any of them.
	finalBlock = [5]byte{1, 0, 0, 0xff, 0xff}
)

// deflater compresses what is compressed per response: a BestSpeed writer
// (DESIGN.md, "The compression level") and the buffer of one member.
type deflater struct {
	fw  *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.out, flate.BestSpeed) // a valid level cannot error
	return d
}}

// chunk writes the deflate of p to out: from a reset compressor, so no
// back-reference leaves it, ended by a sync flush, so it is whole bytes
// and not final — it decodes to p between any two other chunks.
func chunk(fw *flate.Writer, out *bytes.Buffer, p []byte) {
	fw.Reset(out)
	fw.Write(p) // into a bytes.Buffer: neither call can fail
	fw.Flush()
}

// member renders body as one gzip member: header, chunks, final block,
// CRC-32 and length of the whole body. The bytes are d's, valid until
// its next use. A closed block (the text between two cuts) the cache
// holds is copied from it; one the cache has met once before becomes a
// chunk of its own, which the cache compresses and keeps; everything
// else — the head, the tail, blocks met for the first time, which under
// ingest are the live ones that never recur — is compressed in runs of
// whatever adjoins. A lone cut closes no block and is ignored.
func (d *deflater) member(body []byte, cuts []int, cache *blockCache) []byte {
	d.out.Reset()
	d.out.Write(gzipHeader[:])
	fresh := 0 // body[fresh:] is not compressed yet
	for i := 1; i < len(cuts); i++ {
		text := body[cuts[i-1]:cuts[i]]
		if len(text) == 0 {
			continue
		}
		key, deflated, met := cache.get(text)
		if !met {
			continue
		}
		if cuts[i-1] > fresh {
			chunk(d.fw, &d.out, body[fresh:cuts[i-1]])
		}
		if fresh = cuts[i]; deflated == nil {
			deflated = cache.keep(key, text)
		}
		d.out.Write(deflated)
	}
	if len(body) > fresh {
		chunk(d.fw, &d.out, body[fresh:])
	}
	d.out.Write(finalBlock[:])
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(trailer[4:], uint32(len(body)))
	d.out.Write(trailer[:])
	return d.out.Bytes()
}

// blockBytes bounds the block cache, text and deflate together. A year
// of hours is 69 blocks of about 10 kB, shared by all bodies over them.
const blockBytes = 4 << 20

// blocks is the process-wide block cache behind every writeBody.
var blocks = newBlockCache(blockBytes)

// blockCache maps the text of a closed block to its deflate, keyed by a
// seeded hash of the text. A hit is served only after comparing the
// stored text with the one asked for: a collision costs a deflate, never
// a wrong byte. A text is kept from its second sighting on — the first
// leaves only its key — so blocks that never recur cost neither a chunk
// of their own nor room. What is kept is compressed once and sent many
// times, so at the default level, not at BestSpeed: that more than pays
// for the window and the Huffman tables every chunk starts without. Two
// generations bound it: inserts fill the young one, a full young one
// becomes the old one (whose predecessor is dropped), and a hit in the
// old one moves the block back to the young.
type blockCache struct {
	seed maphash.Seed
	half int // bound of one generation

	mu         sync.Mutex
	young, old map[uint64]block
	youngBytes int

	keeper struct {
		sync.Mutex
		fw  *flate.Writer // made at the first keep: an ingest-only daemon has none
		out bytes.Buffer
	}
}

// block is a kept text and its deflate, or, both nil, a key met once.
type block struct{ text, deflated []byte }

// size is what a block counts for against the bound; the constant stands
// for its map entry, so keys met once are bounded too.
func (b block) size() int { return len(b.text) + len(b.deflated) + 64 }

func newBlockCache(bound int) *blockCache {
	return &blockCache{seed: maphash.MakeSeed(), half: bound / 2, young: make(map[uint64]block)}
}

// get returns text's key, its deflate if the cache holds it, and whether
// the key was met before; a key not met before is noted.
func (c *blockCache) get(text []byte) (key uint64, deflated []byte, met bool) {
	key = maphash.Bytes(c.seed, text)
	c.mu.Lock()
	b, met := c.young[key]
	if !met {
		b, met = c.old[key]
		c.insertLocked(key, b) // note the key, or move the block back
	}
	c.mu.Unlock()
	if !bytes.Equal(b.text, text) {
		return key, nil, met
	}
	return key, b.deflated, true
}

// keep compresses text, files copies of both under key and returns the
// deflate.
func (c *blockCache) keep(key uint64, text []byte) []byte {
	k := &c.keeper
	k.Lock()
	if k.fw == nil {
		k.fw, _ = flate.NewWriter(&k.out, flate.DefaultCompression) // a valid level cannot error
	}
	k.out.Reset()
	chunk(k.fw, &k.out, text)
	b := block{bytes.Clone(text), bytes.Clone(k.out.Bytes())}
	k.Unlock()
	c.mu.Lock()
	c.insertLocked(key, b)
	c.mu.Unlock()
	return b.deflated
}

func (c *blockCache) insertLocked(key uint64, b block) {
	if b.size() > c.half {
		return
	}
	if was, ok := c.young[key]; ok {
		c.youngBytes -= was.size()
	}
	if c.youngBytes+b.size() > c.half {
		c.old, c.young, c.youngBytes = c.young, make(map[uint64]block), 0
	}
	c.young[key] = b
	c.youngBytes += b.size()
}
