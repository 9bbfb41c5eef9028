package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// DiffRun is one contiguous range of modified bytes within a page.
type DiffRun struct {
	Off  int
	Data []byte
}

// Diff is the encoded set of modifications made to one page: the classic
// SW-DSM diff produced by comparing a page against its twin at word
// granularity and run-length encoding the changed ranges.
type Diff struct {
	Page int
	Runs []DiffRun
	// ID is a process-local identity assigned at creation, letting the
	// tracing/auditing layer recognize the same diff across protocol
	// events (e.g. to detect a diff applied twice). It is not part of the
	// simulated wire format and not reproducible across runs.
	ID uint64

	// data is the reusable backing buffer behind Runs when the diff was
	// produced by Merger.MergeInto; nil otherwise.
	data []byte
}

// diffIDs hands out process-unique diff identities. Atomic because
// parallel engines (the sweep scheduler's workers, parallel tests) share
// the process; within one engine the simulated processors are coroutines
// of a single goroutine.
//
//dsmvet:allow singlethread process-global ID counter shared by parallel test runs; serialized per engine, atomic only for the race detector
var diffIDs atomic.Uint64

//dsmvet:allow singlethread process-global ID counter shared by parallel test runs; serialized per engine, atomic only for the race detector
func nextDiffID() uint64 { return diffIDs.Add(1) }

// runHeaderBytes is the encoded size of a run header (offset + length).
const runHeaderBytes = 8

// MakeDiff compares cur against twin at the given word granularity and
// returns the diff, or nil if the page is unchanged. The two slices must
// be the same length (one page).
//
// The hot path (word sizes dividing 8 and a page that is a multiple of 8
// bytes — every real configuration) skips clean regions eight bytes at a
// time with uint64 loads and backs all run data with one allocation; the
// generic fallback handles odd geometries.
func MakeDiff(page int, twin, cur []byte, wordBytes int) *Diff {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("mem: diff size mismatch %d vs %d", len(twin), len(cur)))
	}
	if wordBytes <= 0 || 8%wordBytes != 0 || len(cur)%8 != 0 {
		return makeDiffGeneric(page, twin, cur, wordBytes)
	}

	// Single scan: record each run as a view into cur, then relocate all
	// run data into one backing buffer (runs must not alias the live page,
	// which keeps changing).
	n := len(cur)
	var runs []DiffRun
	total := 0
	i := 0
	for i < n {
		// Skip clean regions 8 bytes at a time. i is always word-aligned
		// and wordBytes divides 8, so an equal 8-byte window means every
		// word inside it is equal (the window itself need not be 8-aligned).
		for i+8 <= n &&
			binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
		}
		if i >= n {
			break
		}
		if wordEqual(twin, cur, i, wordBytes) {
			i += wordBytes
			continue
		}
		start := i
		i += wordBytes
		if wordBytes == 4 {
			// Extend over modified words two at a time: the xor's low and
			// high halves are the two words' deltas. Either break leaves
			// the word at i equal, so the per-word tail below stops there.
			for i+8 <= n {
				x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
				if uint32(x) == 0 {
					break
				}
				if x>>32 == 0 {
					i += 4
					break
				}
				i += 8
			}
		}
		for i < n && !wordEqual(twin, cur, i, wordBytes) {
			i += wordBytes
		}
		runs = append(runs, DiffRun{Off: start, Data: cur[start:i:i]})
		total += i - start
	}
	if len(runs) == 0 {
		return nil
	}
	backing := make([]byte, 0, total)
	for r := range runs {
		off := len(backing)
		backing = append(backing, runs[r].Data...)
		runs[r].Data = backing[off:len(backing):len(backing)]
	}
	return &Diff{Page: page, ID: nextDiffID(), Runs: runs}
}

// wordEqual compares one word at offset i. w divides 8 here, so a word
// never straddles the page end.
func wordEqual(twin, cur []byte, i, w int) bool {
	switch w {
	case 8:
		return binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:])
	case 4:
		return binary.LittleEndian.Uint32(twin[i:]) == binary.LittleEndian.Uint32(cur[i:])
	case 2:
		return binary.LittleEndian.Uint16(twin[i:]) == binary.LittleEndian.Uint16(cur[i:])
	default: // 1
		return twin[i] == cur[i]
	}
}

// makeDiffGeneric is the original word-by-word comparison, kept for word
// sizes that do not divide 8 or pages that are not multiples of 8.
func makeDiffGeneric(page int, twin, cur []byte, wordBytes int) *Diff {
	var d *Diff
	n := len(cur)
	i := 0
	for i < n {
		w := wordBytes
		if i+w > n {
			w = n - i
		}
		if bytesEqual(twin[i:i+w], cur[i:i+w]) {
			i += w
			continue
		}
		// Extend the run over consecutive modified words.
		start := i
		for i < n {
			w = wordBytes
			if i+w > n {
				w = n - i
			}
			if bytesEqual(twin[i:i+w], cur[i:i+w]) {
				break
			}
			i += w
		}
		if d == nil {
			d = &Diff{Page: page, ID: nextDiffID()}
		}
		run := DiffRun{Off: start, Data: make([]byte, i-start)}
		copy(run.Data, cur[start:i])
		d.Runs = append(d.Runs, run)
	}
	return d
}

// Apply patches the diff into dst (one page of bytes).
func (d *Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:r.Off+len(r.Data)], r.Data)
	}
}

// DataBytes returns the number of modified bytes carried.
func (d *Diff) DataBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// EncodedBytes returns the wire size of the diff (run headers + data).
func (d *Diff) EncodedBytes() int {
	return len(d.Runs)*runHeaderBytes + d.DataBytes()
}

// Covers reports whether the diff modifies the byte at off. Runs are
// ordered by offset and disjoint (MakeDiff and MergeDiffs both emit them
// that way), so this is a binary search for the last run starting at or
// before off.
func (d *Diff) Covers(off int) bool {
	// First run strictly past off; the candidate is its predecessor.
	i := sort.Search(len(d.Runs), func(i int) bool { return d.Runs[i].Off > off })
	if i == 0 {
		return false
	}
	r := d.Runs[i-1]
	return off < r.Off+len(r.Data)
}

// Clone returns a deep copy of the diff (with a fresh identity).
func (d *Diff) Clone() *Diff {
	c := &Diff{Page: d.Page, ID: nextDiffID(), Runs: make([]DiffRun, len(d.Runs))}
	for i, r := range d.Runs {
		c.Runs[i] = DiffRun{Off: r.Off, Data: append([]byte(nil), r.Data...)}
	}
	return c
}

// MergeDiffs folds a sequence of diffs for the same page (oldest first)
// into a single diff, later writes overriding earlier ones — the merged
// diff a lock releaser pushes to its update set in AEC. Returns nil when
// the input is empty.
//
// Long-lived callers (protocol instances) should hold a Merger instead:
// this convenience wrapper pays two page-sized scratch allocations per
// call.
func MergeDiffs(pageSize int, diffs ...*Diff) *Diff {
	m := NewMerger(pageSize)
	return m.Merge(diffs...)
}

// Merger merges page diffs using reusable scratch, so the per-interval
// merges on a protocol's hot path allocate only their output (and nothing
// at all via MergeInto). A Merger serves one page size and is not
// goroutine-safe; protocols hold one per instance, which keeps it inside a
// single engine.
type Merger struct {
	present []bool
	buf     []byte
}

// NewMerger builds a merger for one page size.
func NewMerger(pageSize int) *Merger {
	return &Merger{present: make([]bool, pageSize), buf: make([]byte, pageSize)}
}

// Merge folds diffs (oldest first, nils skipped) into a freshly allocated
// diff the caller owns, or nil when nothing was modified.
func (m *Merger) Merge(diffs ...*Diff) *Diff {
	page, lo, hi := m.fold(diffs)
	if page == -1 {
		return nil
	}
	total, runs := 0, 0
	m.scanPresent(lo, hi, func(start, end int) {
		runs++
		total += end - start
	})
	out := &Diff{Page: page, ID: nextDiffID(), Runs: make([]DiffRun, 0, runs)}
	backing := make([]byte, 0, total)
	m.scanPresent(lo, hi, func(start, end int) {
		off := len(backing)
		backing = append(backing, m.buf[start:end]...)
		out.Runs = append(out.Runs, DiffRun{Off: start, Data: backing[off:len(backing):len(backing)]})
	})
	m.reset(lo, hi)
	return out
}

// MergeInto is Merge with the output written into dst, reusing dst's run
// and data capacity — the zero-allocation steady-state path. The returned
// diff's run data aliases dst's backing storage and is valid until the
// next MergeInto with the same dst; callers that retain merged diffs
// (protocols archiving update sets) must use Merge instead. A nil dst is
// allocated on first use. Returns (dst, false) when nothing was modified.
func (m *Merger) MergeInto(dst *Diff, diffs ...*Diff) (*Diff, bool) {
	page, lo, hi := m.fold(diffs)
	if page == -1 {
		return dst, false
	}
	if dst == nil {
		dst = &Diff{}
	}
	dst.Page = page
	dst.ID = nextDiffID()
	dst.Runs = dst.Runs[:0]
	backing := dst.data[:0]
	m.scanPresent(lo, hi, func(start, end int) {
		off := len(backing)
		backing = append(backing, m.buf[start:end]...)
		dst.Runs = append(dst.Runs, DiffRun{Off: start, Data: backing[off:len(backing):len(backing)]})
	})
	dst.data = backing
	m.reset(lo, hi)
	return dst, true
}

// fold applies every diff's runs onto the scratch page, returning the page
// number (-1 when nothing was modified) and the [lo, hi) window that
// bounds all modifications.
func (m *Merger) fold(diffs []*Diff) (page, lo, hi int) {
	page, lo, hi = -1, len(m.buf), 0
	for _, d := range diffs {
		if d == nil {
			continue
		}
		if page == -1 {
			page = d.Page
		} else if d.Page != page {
			panic(fmt.Sprintf("mem: merging diffs of pages %d and %d", page, d.Page))
		}
		for _, r := range d.Runs {
			copy(m.buf[r.Off:r.Off+len(r.Data)], r.Data)
			for i := r.Off; i < r.Off+len(r.Data); i++ {
				m.present[i] = true
			}
			if r.Off < lo {
				lo = r.Off
			}
			if r.Off+len(r.Data) > hi {
				hi = r.Off + len(r.Data)
			}
		}
	}
	if page != -1 && lo >= hi {
		// Diffs present but all empty: nothing modified.
		page = -1
	}
	return page, lo, hi
}

// scanPresent calls emit(start, end) for every maximal present range
// within [lo, hi).
func (m *Merger) scanPresent(lo, hi int, emit func(start, end int)) {
	i := lo
	for i < hi {
		if !m.present[i] {
			i++
			continue
		}
		start := i
		for i < hi && m.present[i] {
			i++
		}
		emit(start, i)
	}
}

// reset clears the [lo, hi) window of present bytes, leaving the scratch
// clean for the next merge without a page-sized wipe.
func (m *Merger) reset(lo, hi int) {
	for i := lo; i < hi; i++ {
		m.present[i] = false
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteNotice records that a processor modified a page outside of critical
// sections during a barrier step; receivers invalidate the page and later
// fetch the corresponding diff from the writer.
type WriteNotice struct {
	Page   int
	Writer int
	Step   int
}
