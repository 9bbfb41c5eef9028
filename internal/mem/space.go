// Package mem implements the software shared-memory substrate of the
// reproduction: a global shared address space carved into pages, per-
// processor page frames with valid/twin state, run-length-encoded diffs,
// diff merging, and write notices — the building blocks every SW-DSM
// protocol in this repository (AEC, AEC-noLAP, TreadMarks) manipulates.
//
// When tracing is enabled (see aecdsm/internal/trace and
// docs/OBSERVABILITY.md), ProcMem emits twin-create and invalidate events
// through its Tracer; with tracing off — the default — the cost is a
// single branch per operation.
package mem

import (
	"fmt"

	"aecdsm/internal/pool"
)

// Addr is a byte offset into the global shared address space.
type Addr = int

// Space is the global shared address space: a deterministic bump allocator
// plus the initial memory image written by application init code.
type Space struct {
	pageSize  int
	pageShift uint
	size      int
	init      []byte
	homes     []int // per page initial home

	// region is where the image and every page-sized buffer of the run
	// come from; nil is the heap.
	region *Region
}

// NewSpace builds an empty space with the given page size (a power of
// two), its image and pages on the heap.
func NewSpace(pageSize int) *Space { return NewSpaceIn(nil, pageSize) }

// NewSpaceIn is NewSpace for a space that draws its image and pages from
// region, which the caller holds (Acquire) for as long as anything reads
// the space or a ProcMem built on it.
func NewSpaceIn(region *Region, pageSize int) *Space {
	s := &Space{pageSize: pageSize, region: region}
	if region != nil {
		s.init = region.image
	}
	for 1<<s.pageShift < pageSize {
		s.pageShift++
	}
	return s
}

// PageFrom returns a page-sized buffer for a user that overwrites all of
// it (a twin, a reply snapshot): the one most recently Put to idle, or a
// new one from the space's region, each holding whatever its last user
// left there.
func (s *Space) PageFrom(idle *pool.Slices[byte]) []byte {
	if b := idle.Get(); b != nil {
		return b[:s.pageSize]
	}
	return s.region.page(s.pageSize)
}

// Region is the region the space draws from; nil is the heap.
func (s *Space) Region() *Region { return s.region }

// PageSize returns the coherence unit in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// Pages returns the number of pages currently allocated.
func (s *Space) Pages() int { return (s.size + s.pageSize - 1) / s.pageSize }

// Size returns the allocated extent in bytes.
func (s *Space) Size() int { return s.size }

// PageOf returns the page number containing the address.
func (s *Space) PageOf(a Addr) int { return a >> s.pageShift }

// PageBase returns the first address of a page.
func (s *Space) PageBase(page int) Addr { return page << s.pageShift }

// Alloc reserves size bytes, page-aligned, homed at the given processor,
// and returns the base address. Page alignment keeps distinct regions from
// false-sharing a page unless the application asks for it via AllocPacked.
func (s *Space) Alloc(name string, size, home int) Addr {
	// Align to page.
	if rem := s.size % s.pageSize; rem != 0 {
		s.size += s.pageSize - rem
	}
	return s.allocAt(name, size, home)
}

// AllocPacked reserves size bytes without page alignment, allowing regions
// to share pages (deliberate false sharing, as real applications exhibit).
func (s *Space) AllocPacked(name string, size, home int) Addr {
	return s.allocAt(name, size, home)
}

func (s *Space) allocAt(name string, size, home int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: allocation %q with non-positive size %d", name, size))
	}
	base := s.size
	s.size += size
	if need := pageCeil(s.size, s.pageSize); need > len(s.init) {
		// The backing array grows geometrically, so a run of allocations
		// copies O(final size) bytes, not the whole image each time; the
		// length stays the page-ceiled extent, and the extension is
		// cleared here, whatever the capacity it grew into held.
		s.init = s.region.growImage(s.init, need)
	}
	for len(s.homes) < s.Pages() {
		s.homes = append(s.homes, home)
	}
	return base
}

// InitHome returns the processor holding the initial copy of a page.
func (s *Space) InitHome(page int) int { return s.homes[page] }

// Rehome reassigns every allocated page's initial home to f(page). The
// harness uses this after application init to shard homes across a
// large machine (the paper's applications pin most regions to processor
// 0 — fine at 16 nodes, a hotspot at 256+; see docs/SCALING.md). It
// must run before the engine starts: protocols capture their home maps
// at Attach.
func (s *Space) Rehome(f func(page int) int) {
	for pg := range s.homes {
		s.homes[pg] = f(pg)
	}
}

// InitImage exposes the initial memory contents for bootstrapping frames,
// capped at their length: the spare capacity behind it is not the
// caller's, and not zero (allocAt clears what it grows into).
func (s *Space) InitImage() []byte { return s.init[:len(s.init):len(s.init)] }

// WriteInit stores initial contents at the given address; used by
// application init hooks before the simulation starts.
func (s *Space) WriteInit(a Addr, b []byte) {
	copy(s.init[a:a+len(b)], b)
}

func pageCeil(n, page int) int {
	return (n + page - 1) / page * page
}
