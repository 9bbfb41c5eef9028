package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"sync/atomic"
)

// Diff is the set of modifications made to one page: the classic SW-DSM
// diff produced by comparing a page against its twin at word granularity
// and run-length encoding the changed ranges. It is held in the form the
// simulated wire carries, so the host pays for a diff what the simulated
// network does: one buffer, run after run, each an 8-byte header (offset
// within the page, then length, little-endian uint32) followed by the
// run's bytes. MakeDiff and the Merger emit runs ordered by offset,
// non-empty and neither overlapping nor adjacent. The zero value with a
// Page is the empty diff.
type Diff struct {
	Page int
	// ID is a process-local identity assigned at creation, letting the
	// tracing/auditing layer recognize the same diff across protocol
	// events (e.g. to detect a diff applied twice). It is not part of the
	// simulated wire format and not reproducible across runs.
	ID uint64

	enc  []byte
	runs int
}

// diffIDs hands out process-unique diff identities. Atomic because
// parallel engines (the sweep scheduler's workers, parallel tests) share
// the process; within one engine the simulated processors are coroutines
// of a single goroutine, so the counter is serialized per engine and
// atomic only for the race detector (two allowances in internal/lint).
var diffIDs atomic.Uint64

func nextDiffID() uint64 { return diffIDs.Add(1) }

// runHeaderBytes is the encoded size of a run header (offset + length).
const runHeaderBytes = 8

// maxEncodedBytes is the largest encoding a diff of one page can have:
// runs are neither empty nor adjacent, so there are at most ⌈words/2⌉ of
// them (every other word modified), and together they carry at most the
// page.
func maxEncodedBytes(pageSize, wordBytes int) int {
	wordBytes = max(wordBytes, 1) // the compare diagnoses a bad word size
	return pageSize + runHeaderBytes*((pageSize+2*wordBytes-1)/(2*wordBytes))
}

// appendRun encodes one run at the end of enc.
func appendRun(enc []byte, off int, data []byte) []byte {
	enc = binary.LittleEndian.AppendUint32(enc, uint32(off))
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(data)))
	return append(enc, data...)
}

// Runs iterates over the diff's runs in encoding order, yielding each
// run's offset within the page and its bytes (which alias the diff). It is
// the one decoder: Apply, the Merger and the protocols' patch all range
// over it, and the compiler inlines the loop into each.
func (d *Diff) Runs() iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		for enc := d.enc; len(enc) > 0; {
			off := int(binary.LittleEndian.Uint32(enc))
			end := runHeaderBytes + int(binary.LittleEndian.Uint32(enc[4:]))
			if !yield(off, enc[runHeaderBytes:end]) {
				return
			}
			enc = enc[end:]
		}
	}
}

// AppendRun adds a run to a diff built by hand rather than by MakeDiff or
// a Merger; data is copied.
func (d *Diff) AppendRun(off int, data []byte) {
	d.enc = appendRun(d.enc, off, data)
	d.runs++
}

// MakeDiff compares cur against twin at the given word granularity and
// returns the diff, or nil if the page is unchanged. The two slices must
// be the same length (one page). The protocols diff through
// ProcMem.MakeDiff, which encodes into the processor's scratch; this entry
// grows a buffer of its own and hands it to the diff.
func MakeDiff(page int, twin, cur []byte, wordBytes int) *Diff {
	enc, runs := appendRuns(nil, twin, cur, wordBytes)
	if runs == 0 {
		return nil
	}
	return &Diff{Page: page, ID: nextDiffID(), enc: enc, runs: runs}
}

// appendRuns is the twin-compare kernel: one scan of the page that appends
// the encoding of every modified run to enc and counts them.
//
// The hot path (word sizes dividing 8 and a page that is a multiple of 8
// bytes — every real configuration) skips clean regions eight bytes at a
// time with uint64 loads; the generic fallback handles odd geometries.
func appendRuns(enc, twin, cur []byte, wordBytes int) ([]byte, int) {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("mem: diff size mismatch %d vs %d", len(twin), len(cur)))
	}
	if wordBytes <= 0 {
		panic(fmt.Sprintf("mem: diff word size %d, want a positive byte count", wordBytes))
	}
	if 8%wordBytes != 0 || len(cur)%8 != 0 {
		return appendRunsGeneric(enc, twin, cur, wordBytes)
	}

	n := len(cur)
	runs := 0
	i := 0
	for i < n {
		// Skip clean regions 8 bytes at a time. i is always word-aligned
		// and wordBytes divides 8, so an equal 8-byte window means every
		// word inside it is equal (the window itself need not be 8-aligned).
		// One clean window usually opens a clean stretch, which is crossed
		// a cache line at a time (the array compare is one memequal); the
		// windows then find the word inside the line that stopped it. A
		// dense page's windows differ, and it never gets here.
		if i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
			for i+64 <= n && *(*[64]byte)(twin[i:]) == *(*[64]byte)(cur[i:]) {
				i += 64
			}
			for i+8 <= n &&
				binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
				i += 8
			}
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
		enc = appendRun(enc, start, cur[start:i])
		runs++
	}
	return enc, runs
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

// appendRunsGeneric is the original word-by-word comparison, kept for word
// sizes that do not divide 8 or pages that are not multiples of 8, and as
// the reference the fast path is tested against.
func appendRunsGeneric(enc, twin, cur []byte, wordBytes int) ([]byte, int) {
	n := len(cur)
	runs := 0
	i := 0
	for i < n {
		w := min(wordBytes, n-i)
		if bytes.Equal(twin[i:i+w], cur[i:i+w]) {
			i += w
			continue
		}
		// Extend the run over consecutive modified words.
		start := i
		for i < n {
			w = min(wordBytes, n-i)
			if bytes.Equal(twin[i:i+w], cur[i:i+w]) {
				break
			}
			i += w
		}
		enc = appendRun(enc, start, cur[start:i])
		runs++
	}
	return enc, runs
}

// Apply patches the diff into dst (one page of bytes).
func (d *Diff) Apply(dst []byte) {
	for off, data := range d.Runs() {
		copy(dst[off:off+len(data)], data)
	}
}

// DataBytes returns the number of modified bytes carried.
func (d *Diff) DataBytes() int { return len(d.enc) - d.runs*runHeaderBytes }

// EncodedBytes returns the wire size of the diff (run headers + data).
func (d *Diff) EncodedBytes() int { return len(d.enc) }

// MergeDiffs folds a sequence of diffs for the same page (oldest first)
// into a single diff, later writes overriding earlier ones — the merged
// diff a lock releaser pushes to its update set in AEC. Returns nil when
// the input is empty.
//
// Long-lived callers (protocol instances) should hold a Merger instead:
// this convenience wrapper pays two page-sized scratch allocations per
// call.
func MergeDiffs(pageSize int, diffs ...*Diff) *Diff {
	// A one-shot merger has no scratch to keep: the buffer MergeInto
	// grows is the diff's own.
	if d, ok := NewMerger(pageSize).MergeInto(nil, diffs...); ok {
		return d
	}
	return nil
}

// Merger merges page diffs using reusable scratch, so the per-interval
// merges on a protocol's hot path allocate only their output (and nothing
// at all via MergeInto). A Merger serves one page size and is not
// goroutine-safe; protocols hold one per instance, which keeps it inside a
// single engine.
type Merger struct {
	present []bool
	buf     []byte
	enc     []byte // MergeIn encodes here, then copies out at exact size
}

// NewMerger builds a merger for one page size.
func NewMerger(pageSize int) *Merger {
	return &Merger{present: make([]bool, pageSize), buf: make([]byte, pageSize)}
}

// Merge folds diffs (oldest first, nils skipped) into a freshly allocated
// diff the caller owns, or nil when nothing was modified.
func (m *Merger) Merge(diffs ...*Diff) *Diff { return m.MergeIn(nil, diffs...) }

// MergeIn is Merge with the output's encoding carved from region at exact
// size (nil: the heap), for a merged diff that lives until the run ends —
// AEC's archive of outside diffs. A region frees nothing before Release,
// so a diff that dies sooner belongs on the heap.
func (m *Merger) MergeIn(region *Region, diffs ...*Diff) *Diff {
	page, lo, hi := m.fold(diffs)
	if page == -1 {
		return nil
	}
	var runs int
	m.enc, runs = m.appendPresent(m.enc[:0], lo, hi)
	return &Diff{Page: page, ID: nextDiffID(), enc: region.keep(m.enc), runs: runs}
}

// MergeInto is Merge with the output encoded into dst, reusing dst's
// capacity — the zero-allocation steady-state path. The returned diff is
// valid until the next MergeInto with the same dst; a caller that keeps
// merged diffs takes Merge (the heap) or MergeIn (the run's region)
// instead. A nil dst is allocated on first use. Returns (dst, false) when
// nothing was modified.
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
	dst.enc, dst.runs = m.appendPresent(dst.enc[:0], lo, hi)
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
		for off, data := range d.Runs() {
			end := off + len(data)
			copy(m.buf[off:end], data)
			present := m.present[off:end]
			for i := range present {
				present[i] = true
			}
			lo, hi = min(lo, off), max(hi, end)
		}
	}
	if page != -1 && lo >= hi {
		// Diffs present but all empty: nothing modified.
		page = -1
	}
	return page, lo, hi
}

// appendPresent appends the encoding of every maximal present range within
// [lo, hi) to enc and counts them, clearing the window as it goes so the
// scratch is clean for the next merge without a page-sized wipe.
func (m *Merger) appendPresent(enc []byte, lo, hi int) ([]byte, int) {
	runs := 0
	present := m.present[:hi]
	for i := lo; i < hi; {
		if !present[i] {
			i++
			continue
		}
		start := i
		for i < hi && present[i] {
			present[i] = false
			i++
		}
		enc = appendRun(enc, start, m.buf[start:i])
		runs++
	}
	return enc, runs
}

// WriteNotice records that a processor modified a page outside of critical
// sections during a barrier step; receivers invalidate the page and later
// fetch the corresponding diff from the writer.
type WriteNotice struct {
	Page   int
	Writer int
	Step   int
}
