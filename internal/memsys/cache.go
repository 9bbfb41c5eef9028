package memsys

// Cache simulates a direct-mapped, write-allocate first-level data cache
// over the shared address space. Only shared data goes through the cache
// model; instructions and private data are assumed to take one cycle, as
// in the paper's methodology.
type Cache struct {
	lineShift uint
	lines     int
	tags      []int64 // tags[index] = line address, -1 if empty

	// Statistics.
	Hits   uint64
	Misses uint64
}

// NewCache builds a cache of totalBytes capacity with the given line size.
// Both must be powers of two with totalBytes a multiple of lineBytes.
func NewCache(totalBytes, lineBytes int) *Cache {
	n := totalBytes / lineBytes
	c := &Cache{
		lineShift: shiftFor(lineBytes),
		lines:     n,
		tags:      make([]int64, n),
	}
	c.Reset()
	return c
}

// Reset empties the cache.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
}

// Access touches the byte range [addr, addr+n) and returns the number of
// line misses it caused. The lines are brought into the cache.
func (c *Cache) Access(addr, n int) (misses int) {
	if n <= 0 {
		return 0
	}
	first := int64(addr) >> c.lineShift
	last := int64(addr+n-1) >> c.lineShift
	for line := first; line <= last; line++ {
		idx := int(line) & (c.lines - 1)
		if c.tags[idx] == line {
			c.Hits++
			continue
		}
		c.tags[idx] = line
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
	first := int64(addr) >> c.lineShift
	last := int64(addr+n-1) >> c.lineShift
	// For very large ranges it is cheaper to walk the index space once.
	if last-first+1 >= int64(c.lines) {
		c.Reset()
		return
	}
	for line := first; line <= last; line++ {
		idx := int(line) & (c.lines - 1)
		if c.tags[idx] == line {
			c.tags[idx] = -1
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
