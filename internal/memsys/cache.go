package memsys

import "fmt"

// Cache simulates a direct-mapped, write-allocate first-level data cache
// over the shared address space. Only shared data goes through the cache
// model; instructions and private data are assumed to take one cycle, as
// in the paper's methodology.
type Cache struct {
	lineShift uint
	lines     int
	// A line's tag is its address plus one in 32 bits, zero being an
	// empty slot, so a new cache is one zeroed allocation; the slot is the
	// tag's low bits (the line's own, rotated by one: the same lines
	// conflict). Params.ValidateSpace refuses a space whose lines such a
	// tag cannot tell apart.
	//
	// The slots are allocated by the first access, and only those the
	// space can index: a space of S lines has tags 1..S, which fall in
	// slots 1..S while S is below the cache's size (DESIGN.md, "Cache
	// tags"). A simulation of a few pages does not zero 32 KB per
	// processor for it.
	tags  []uint32
	bound int // lines of the space behind the cache; 0: not told, any line
	// alloc supplies the slots in place of make (TagsFrom); what it
	// returns may hold anything.
	alloc func(words int) []uint32

	// Statistics.
	Hits   uint64
	Misses uint64
}

// NewCache builds a cache of totalBytes capacity with the given line size.
// Both must be powers of two with totalBytes a multiple of lineBytes.
func NewCache(totalBytes, lineBytes int) *Cache {
	return &Cache{lineShift: shiftFor(lineBytes), lines: totalBytes / lineBytes}
}

// Bound tells a cache not yet accessed that every address it will see lies
// in [0, spaceBytes). Hits and misses are the unbounded cache's; an access
// beyond the bound panics.
func (c *Cache) Bound(spaceBytes int) {
	if c.tags != nil {
		panic("memsys: Cache.Bound after the first access")
	}
	c.bound = (spaceBytes + 1<<c.lineShift - 1) >> c.lineShift
}

// TagsFrom makes a cache not yet accessed take its tag slots from alloc —
// a run's region, in the harness — instead of the heap.
func (c *Cache) TagsFrom(alloc func(words int) []uint32) {
	if c.tags != nil {
		panic("memsys: Cache.TagsFrom after the first access")
	}
	c.alloc = alloc
}

// first is the access that finds a slot missing: a cache's first, which
// makes the slots and starts over, or one that indexes a slot the bound
// ruled out. Access calls it before it has counted anything and returns
// what it returns, so that its own loop keeps nothing live across a call.
func (c *Cache) first(addr, n int) int {
	if c.tags != nil {
		panic(fmt.Sprintf("memsys: cache access [%#x, %#x) is outside the %d lines (%#x bytes) the cache was bounded to",
			addr, addr+n, c.bound, c.bound<<c.lineShift))
	}
	slots := c.lines
	if c.bound > 0 {
		slots = min(slots, c.bound+1)
	}
	if c.alloc == nil {
		c.tags = make([]uint32, slots)
	} else {
		// Dirty memory: an earlier run's tags, which would read as hits.
		c.tags = c.alloc(slots)
		clear(c.tags)
	}
	return c.Access(addr, n)
}

// Reset empties the cache.
func (c *Cache) Reset() { clear(c.tags) }

// Access touches the byte range [addr, addr+n) and returns the number of
// line misses it caused. The lines are brought into the cache.
func (c *Cache) Access(addr, n int) (misses int) {
	if n <= 0 {
		return 0
	}
	first := addr>>c.lineShift + 1
	last := (addr+n-1)>>c.lineShift + 1
	tags, mask := c.tags, uint(c.lines-1)
	for tag := first; tag <= last; tag++ {
		idx := uint(tag) & mask
		if idx >= uint(len(tags)) {
			// No slots yet, so this is the range's first line; or the
			// bound is broken, and first does not return.
			return c.first(addr, n)
		}
		if tags[idx] == uint32(tag) {
			c.Hits++
			continue
		}
		tags[idx] = uint32(tag)
		c.Misses++
		misses++
	}
	return misses
}

// InvalidateRange drops any cached lines covering [addr, addr+n). Used when
// a page is overwritten by remote data (page fetch, diff application), so
// that the next processor access reloads it from memory.
func (c *Cache) InvalidateRange(addr, n int) {
	if n <= 0 {
		return
	}
	first := addr>>c.lineShift + 1
	last := (addr+n-1)>>c.lineShift + 1
	// For very large ranges it is cheaper to walk the index space once.
	if last-first+1 >= c.lines {
		c.Reset()
		return
	}
	for tag := first; tag <= last; tag++ {
		// A slot not allocated holds no line.
		if idx := uint(tag & (c.lines - 1)); idx < uint(len(c.tags)) && c.tags[idx] == uint32(tag) {
			c.tags[idx] = 0
		}
	}
}

func shiftFor(v int) uint {
	var s uint
	for 1<<s < v {
		s++
	}
	return s
}

// TLB simulates a direct-mapped TLB indexed by virtual page number.
type TLB struct {
	entries []int64
	mask    int

	Hits   uint64
	Misses uint64
}

// NewTLB builds a TLB with the given number of entries (a power of two).
func NewTLB(entries int) *TLB {
	t := &TLB{entries: make([]int64, entries), mask: entries - 1}
	t.Reset()
	return t
}

// Reset empties the TLB.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = -1
	}
}

// Access touches the given virtual page and reports whether it missed.
func (t *TLB) Access(page int) (miss bool) {
	idx := page & t.mask
	if t.entries[idx] == int64(page) {
		t.Hits++
		return false
	}
	t.entries[idx] = int64(page)
	t.Misses++
	return true
}
