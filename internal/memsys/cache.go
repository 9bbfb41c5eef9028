package memsys

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
	tags []uint32

	// Statistics.
	Hits   uint64
	Misses uint64
}

// NewCache builds a cache of totalBytes capacity with the given line size.
// Both must be powers of two with totalBytes a multiple of lineBytes.
func NewCache(totalBytes, lineBytes int) *Cache {
	n := totalBytes / lineBytes
	return &Cache{lineShift: shiftFor(lineBytes), lines: n, tags: make([]uint32, n)}
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
	for tag := first; tag <= last; tag++ {
		idx := tag & (c.lines - 1)
		if c.tags[idx] == uint32(tag) {
			c.Hits++
			continue
		}
		c.tags[idx] = uint32(tag)
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
		if idx := tag & (c.lines - 1); c.tags[idx] == uint32(tag) {
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
