package mem

import (
	"slices"
	"strconv"
)

// Region is the memory whose lifetime is exactly one simulation run: page
// frames, twins, the space's initial image, page-home reply snapshots, the
// caches' tag arrays, transient diffs' encoding buffers, and what a
// protocol keeps until the run ends: the encodings of TreadMarks' interval
// diffs (ProcMem.MakeDiff) and AEC's archived outside diffs
// (Merger.MergeIn), and TreadMarks' interval clocks and page lists
// (KeepInts). It frees nothing until Release, which
// frees everything at once by rewinding, so the next run a region serves
// is carved from the memory the last one used and allocates nothing
// (DESIGN.md, "What outlives a run").
//
// Two rules come with it. Lifetime: nothing drawn from a region may be
// read after its Release — a run's result carries statistics, never
// pages. Dirty memory: what a region hands out holds whatever an earlier
// run left there, so every taker overwrites all of it or clears the part
// it exposes.
//
// A nil *Region is the heap: every method that hands memory out allocates
// it with make instead, which is how a Space built by NewSpace, outside
// the harness, gets its pages. The zero value is an empty region. A
// region belongs to one run at a time (Acquire panics on a second taker)
// and, like the engine it serves, is not safe for concurrent use.
type Region struct {
	bytes bump[byte]
	tags  bump[uint32]
	ints  bump[int]
	// image is the buffer the space's initial image grows in, at length
	// zero; it is one contiguous slice, so it cannot be carved from
	// chunks and stands beside them.
	image []byte
	runs  int
	held  bool
}

// Chunk sizes: 256 pages of 4 KB, the tag slots of seven default caches,
// and 512 KB of ints — the clocks of 128 intervals on a 512-processor
// machine. A request larger than a chunk gets a chunk of its own.
const (
	regionChunkBytes = 1 << 20
	regionChunkTags  = 1 << 16
	regionChunkInts  = 1 << 16
)

// regionPoison is what Poison fills with: no valid page content, tag or
// frame state is likely to be made of it.
const regionPoison = 0xA5

// Poisoned makes every layer that takes memory back for reuse overwrite it
// with garbage as it does — RecycleDiff, proto.Reuse and the harness's
// released arenas — so that a reader still holding it, the violation of
// its lifetime rule, reads garbage. Only tests set it, through Poison.
var Poisoned bool

// Poison sets Poisoned until the test t (a *testing.T or *testing.B) ends.
func Poison(t interface{ Cleanup(func()) }) {
	Poisoned = true
	t.Cleanup(func() { Poisoned = false })
}

// bump carves slices off the front of fixed chunks and takes them all
// back at once.
type bump[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	off    int // elements of it handed out
	made   int // elements allocated from the heap, ever
	handed int // elements handed out, ever
}

// take returns n elements holding whatever their last user left, capped
// so an append cannot reach the neighbour.
func (b *bump[T]) take(n, chunk int) []T {
	b.handed += n
	for ; b.cur < len(b.chunks); b.cur, b.off = b.cur+1, 0 {
		if c := b.chunks[b.cur]; b.off+n <= len(c) {
			s := c[b.off : b.off+n : b.off+n]
			b.off += n
			return s
		}
	}
	c := make([]T, max(n, chunk))
	b.made += len(c)
	b.chunks = append(b.chunks, c)
	b.off = n
	return c[:n:n]
}

func (b *bump[T]) rewind() { b.cur, b.off = 0, 0 }

// size is the elements the chunks hold.
func (b *bump[T]) size() (n int) {
	for _, c := range b.chunks {
		n += len(c)
	}
	return n
}

// page returns n bytes for a user that overwrites all of them or clears
// what it does not.
func (r *Region) page(n int) []byte {
	if r == nil {
		return make([]byte, n)
	}
	return r.bytes.take(n, regionChunkBytes)
}

// keep returns a copy of enc carved from the region at exact size, its cap
// its len, so that an append to it cannot reach the next slice; without a
// region, a copy on the heap. The copy overwrites all of what it is
// handed. It is for encodings that live as long as the run: a region frees
// nothing before Release, so a diff that dies sooner stays where it was
// until then.
func (r *Region) keep(enc []byte) []byte {
	if r == nil {
		return append([]byte(nil), enc...)
	}
	b := r.bytes.take(len(enc), regionChunkBytes)
	copy(b, enc)
	return b
}

// KeepInts returns a copy of s carved from the region at exact size, its
// cap its len; without a region, a copy on the heap. Like keep, it is for
// lists that live as long as the run — TreadMarks' interval clocks and
// page lists — and overwrites all of what it is handed.
func (r *Region) KeepInts(s []int) []int {
	if r == nil {
		return slices.Clone(s)
	}
	k := r.ints.take(len(s), regionChunkInts)
	copy(k, s)
	return k
}

// Tags returns n tag words holding whatever their last user left (zeroes
// from the heap, without a region); memsys.Cache clears them before its
// first lookup.
func (r *Region) Tags(n int) []uint32 {
	if r == nil {
		return make([]uint32, n)
	}
	return r.tags.take(n, regionChunkTags)
}

// growImage extends img — the region's image buffer, or a heap one —
// to n bytes and clears exactly the extension: the spare capacity it grows
// into is an earlier run's image.
func (r *Region) growImage(img []byte, n int) []byte {
	old := len(img)
	grown := slices.Grow(img, n-old)[:n]
	clear(grown[old:])
	if r != nil {
		r.bytes.handed += n - old
		if cap(grown) != cap(img) {
			r.bytes.made += cap(grown)
		}
		r.image = grown[:0]
	}
	return grown
}

// Acquire marks the region as serving a run. A region already serving one
// is a bug in whoever shares it, and panics.
func (r *Region) Acquire() {
	if r.held {
		panic("mem: Region.Acquire: the region is already serving a run")
	}
	r.held = true
}

// Release ends the run the region served: everything it handed out is its
// own again, in O(1).
func (r *Region) Release() {
	if !r.held {
		panic("mem: Region.Release: the region serves no run")
	}
	r.held = false
	r.runs++
	r.bytes.rewind()
	r.tags.rewind()
	r.ints.rewind()
}

// Trim gives memory beyond keep bytes back to the collector — whole chunks
// from the end, byte chunks before int chunks, then the image buffer — so
// that one large run does not stay resident behind a sequence of small
// ones. For a released region.
func (r *Region) Trim(keep int) {
	have := r.Size()
	have = r.bytes.trim(have, keep, 1)
	r.ints.trim(have, keep, intBytes)
	if r.Size() > keep {
		r.image = nil
	}
}

// trim drops chunks from the end while the region's size have, of which
// each element here is size bytes, exceeds keep, and returns what is left.
func (b *bump[T]) trim(have, keep, size int) int {
	for have > keep && len(b.chunks) > 0 {
		last := len(b.chunks) - 1
		have -= size * len(b.chunks[last])
		b.chunks[last] = nil
		b.chunks = b.chunks[:last]
	}
	return have
}

// intBytes is the size of an int.
const intBytes = strconv.IntSize / 8

// Size is the memory the region holds, in bytes: chunks, tag and int
// chunks and the image buffer. After a run it is that run's high-water
// mark, unless an earlier run's was higher.
func (r *Region) Size() int {
	return r.bytes.size() + 4*r.tags.size() + intBytes*r.ints.size() + cap(r.image)
}

// Poison fills every byte, tag word and int the region holds, handed out
// or not, with 0xA5 bytes. The lifetime tests poison a region as it is
// released, so that a reader of a finished run's memory reads garbage
// rather than plausible pages or clocks.
func (r *Region) Poison() {
	for _, c := range r.bytes.chunks {
		fill(c, regionPoison)
	}
	for _, c := range r.tags.chunks {
		fill(c, regionPoison*0x01010101)
	}
	for _, c := range r.ints.chunks {
		fill(c, poisonInt)
	}
	fill(r.image[:cap(r.image)], regionPoison)
}

// poisonInt is an int made of regionPoison bytes: the complement of one
// made of 0x5A bytes.
const poisonInt = ^int(^uint(0) / 0xFF * (0xFF ^ regionPoison))

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// RegionStats counts what a region has done since it was made, in the
// style of pool.Of's Made and Idle: Made is memory allocated from the heap
// (it stops growing once the region fits its runs), Handed is memory
// handed to runs (made or reused), the image included in the byte counts.
type RegionStats struct {
	BytesMade, BytesHanded int
	TagsMade, TagsHanded   int
	IntsMade, IntsHanded   int
	Runs                   int // runs served to Release
}

// Stats reports the region's counters.
func (r *Region) Stats() RegionStats {
	return RegionStats{
		BytesMade: r.bytes.made, BytesHanded: r.bytes.handed,
		TagsMade: r.tags.made, TagsHanded: r.tags.handed,
		IntsMade: r.ints.made, IntsHanded: r.ints.handed,
		Runs: r.runs,
	}
}
