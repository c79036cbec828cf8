package api

// The gzip edge. A dashboard polls year-span bodies whose hours rows are,
// but for the last few, the rows of the previous poll, so a closed block
// of them (v1.AppendJSON) is kept by its rows — text and deflate — and a
// gzip response is stitched: one standard member whose deflate chunks are
// the kept blocks' and, compressed per response, the stretches between
// them (DESIGN.md, "A closed block is kept, not rendered or deflated per
// poll").

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"sync"

	v1 "cwatrace/internal/api/v1"
	"cwatrace/internal/obs"
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
// its next use. A kept block (cuts, in order) is the copy of its deflate;
// everything else — head, tail, blocks not kept, which under ingest are
// the live ones that never recur — is compressed in runs of what adjoins.
func (d *deflater) member(body []byte, cuts []v1.Cut) []byte {
	d.out.Reset()
	d.out.Write(gzipHeader[:])
	fresh := 0 // body[fresh:] is not compressed yet
	for _, c := range cuts {
		if c.Block == nil {
			continue
		}
		if c.Off > fresh {
			chunk(d.fw, &d.out, body[fresh:c.Off])
		}
		d.out.Write(c.Block.Deflated)
		fresh = c.Off + len(c.Block.Text)
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

// blockBytes bounds a block cache: keys, text and deflate together. A
// year of hours is 69 blocks of about 13 kB, shared by all bodies on it.
const blockBytes = 4 << 20

// blockCache keeps closed blocks by their rows (v1.Blocks): the map hashes
// a key and compares all of it, so nothing but those rows is ever served
// for them. A block is kept from its second sighting on — the first
// leaves only its key — so blocks that never recur cost neither a chunk
// of their own nor room. What is kept is compressed once and sent many
// times, so at the default level, not at BestSpeed: that more than pays
// for the window and the Huffman tables every chunk starts without. Two
// generations bound it: inserts fill the young one, a full young one
// becomes the old one (whose predecessor is dropped), and a hit in the
// old one moves the block back to the young.
type blockCache struct {
	half int // bound of one generation

	// hits/misses count Find by whether it found the block; set once at
	// server construction (nil = uninstrumented).
	hits, misses *obs.Counter

	mu         sync.Mutex
	young, old map[string]*v1.Block // nil: a key met once
	youngBytes int

	keeper struct {
		sync.Mutex
		fw  *flate.Writer // made at the first Keep: an ingest-only daemon has none
		out bytes.Buffer
	}
}

// blockSize is what an entry counts for against the bound; the constant
// stands for its place in the map.
func blockSize(key string, b *v1.Block) int {
	if b == nil {
		return len(key) + 64
	}
	return len(key) + len(b.Text) + len(b.Deflated) + 64
}

func newBlockCache(bound int) *blockCache {
	return &blockCache{half: bound / 2, young: make(map[string]*v1.Block)}
}

// Find implements v1.Blocks; a key not met before is noted.
func (c *blockCache) Find(key []byte) (*v1.Block, bool) {
	c.mu.Lock()
	b, met := c.young[string(key)]
	if !met {
		b, met = c.old[string(key)]
		c.insertLocked(string(key), b) // note the key, or move the block back
	}
	c.mu.Unlock()
	if b == nil {
		c.misses.Inc()
	} else {
		c.hits.Inc()
	}
	return b, met
}

// Keep implements v1.Blocks: it compresses text and files copies of key,
// text and deflate.
func (c *blockCache) Keep(key, text []byte) *v1.Block {
	k := &c.keeper
	k.Lock()
	if k.fw == nil {
		k.fw, _ = flate.NewWriter(&k.out, flate.DefaultCompression) // a valid level cannot error
	}
	k.out.Reset()
	chunk(k.fw, &k.out, text)
	b := &v1.Block{Text: bytes.Clone(text), Deflated: bytes.Clone(k.out.Bytes())}
	k.Unlock()
	c.mu.Lock()
	c.insertLocked(string(key), b)
	c.mu.Unlock()
	return b
}

func (c *blockCache) insertLocked(key string, b *v1.Block) {
	size := blockSize(key, b)
	if size > c.half {
		return
	}
	if was, ok := c.young[key]; ok {
		c.youngBytes -= blockSize(key, was)
	}
	if c.youngBytes+size > c.half {
		c.old, c.young, c.youngBytes = c.young, make(map[string]*v1.Block), 0
	}
	c.young[key] = b
	c.youngBytes += size
}
