package mem

import (
	"bytes"
	"testing"
)

// Kept diffs: TreadMarks' interval diffs (ProcMem.MakeDiff) and AEC's
// archived outside diffs (Merger.MergeIn) live until the run ends, so
// their encodings are carved from the run's region at exact size.

// dirtyRegion returns a region that has served a run and been poisoned,
// held for the next: everything it hands out is garbage, as the
// dirty-memory rule allows.
func dirtyRegion() *Region {
	r := new(Region)
	r.Acquire()
	r.page(1)
	r.Release()
	r.Poison()
	r.Acquire()
	return r
}

// TestKeptDiffs: a kept diff — made by ProcMem.MakeDiff or merged by
// MergeIn — carries MakeDiff's (or Merge's) bytes, copied over the
// region's garbage into exactly as much as it needs, capped so that an
// append cannot reach the next slice; and it is the region's memory: once
// the region is released and poisoned, it reads 0xA5.
func TestKeptDiffs(t *testing.T) {
	const ps = 4096
	for _, w := range []int{1, 2, 4, 8} {
		pages := transientPages(ps, w)
		twin := pages["twin"]
		later := MakeDiff(0, twin, pages["sparse"], w)
		for _, shape := range []string{"sparse", "dense", "alternating"} {
			r := dirtyRegion()
			m := transientMem(r, ps, pages[shape])
			before := r.Stats().BytesHanded
			want := MakeDiff(0, twin, pages[shape], w)
			got := m.MakeDiff(0, twin, w)
			mergedWant := NewMerger(ps).Merge(want, later)
			merged := NewMerger(ps).MergeIn(r, want, later)
			for _, c := range []struct {
				what      string
				got, want *Diff
			}{{"ProcMem.MakeDiff", got, want}, {"MergeIn", merged, mergedWant}} {
				if !sameEncoding(c.got, c.want) || c.got.Page != 0 {
					t.Fatalf("%d-byte words, %s page: %s = %v, want %v", w, shape, c.what, c.got, c.want)
				}
				if len(c.got.enc) != cap(c.got.enc) {
					t.Fatalf("%d-byte words, %s page: %s's encoding has len %d, cap %d", w, shape, c.what, len(c.got.enc), cap(c.got.enc))
				}
			}
			if handed := r.Stats().BytesHanded - before; handed != got.EncodedBytes()+merged.EncodedBytes() {
				t.Fatalf("%d-byte words, %s page: two kept diffs of %d and %d bytes drew %d from the region",
					w, shape, got.EncodedBytes(), merged.EncodedBytes(), handed)
			}
			r.Release()
			r.Poison()
			for _, d := range []*Diff{got, merged} {
				if !bytes.Equal(d.enc, bytes.Repeat([]byte{regionPoison}, len(d.enc))) {
					t.Fatalf("%d-byte words, %s page: a kept diff does not read the released region's poison", w, shape)
				}
			}
			if !sameEncoding(MakeDiff(0, twin, pages[shape], w), want) {
				t.Fatalf("%d-byte words, %s page: poisoning the region reached a heap diff", w, shape)
			}
		}
	}
}

// TestKeptDiffAllocatesItsHeaderOnly: with a warmed region, making a kept
// diff allocates one object, its *Diff, and merging one the same; a space
// without a region (NewSpace) still gets its encodings from the heap, one
// object more each.
func TestKeptDiffAllocatesItsHeaderOnly(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	twin, dense := pages["twin"], pages["dense"]
	later := MakeDiff(0, twin, pages["sparse"], 4)
	for _, c := range []struct {
		region *Region
		want   float64
	}{{new(Region), 1}, {nil, 2}} {
		if c.region != nil {
			// The frame transientMem draws from the region makes its
			// first chunk, which has room for every diff below.
			c.region.Acquire()
		}
		m := transientMem(c.region, ps, dense)
		mg := NewMerger(ps)
		earlier := m.MakeDiff(0, twin, 4)
		for what, f := range map[string]func(){
			"ProcMem.MakeDiff": func() { m.MakeDiff(0, twin, 4) },
			"MergeIn":          func() { mg.MergeIn(c.region, earlier, later) },
		} {
			if n := testing.AllocsPerRun(100, f); n != c.want {
				t.Errorf("%s, region %v: %v objects/op, want %v", what, c.region != nil, n, c.want)
			}
		}
	}
}
