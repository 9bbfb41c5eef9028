package mem

import (
	"bytes"
	"testing"
)

// transientPages are the page shapes the transient tests diff against a
// twin of byte(i*31): nothing, one word in 64 bytes, every fourth byte,
// and every other word — the worst case for the encoding — at word size w.
func transientPages(ps, w int) map[string][]byte {
	twin := make([]byte, ps)
	for i := range twin {
		twin[i] = byte(i * 31)
	}
	shape := func(mod func(i int) bool) []byte {
		cur := append([]byte(nil), twin...)
		for i := range cur {
			if mod(i) {
				cur[i] ^= 0xFF
			}
		}
		return cur
	}
	return map[string][]byte{
		"twin":        twin,
		"clean":       shape(func(int) bool { return false }),
		"sparse":      shape(func(i int) bool { return i%64 == 0 }),
		"dense":       shape(func(i int) bool { return i%4 == 0 }),
		"alternating": shape(func(i int) bool { return (i/w)%2 == 0 }),
	}
}

// transientMem is a ProcMem over one page of ps bytes, in region r (nil is
// the heap), whose frame holds cur.
func transientMem(r *Region, ps int, cur []byte) *ProcMem {
	s := NewSpaceIn(r, ps)
	s.Alloc("page", ps, 0)
	m := NewProcMem(s, 0)
	m.Write(0, cur)
	return m
}

// TestTransientMatchesMakeDiff: a transient diff is MakeDiff's, run for
// run, on every page shape and word size, with and without a region — and
// so is the next one, encoded into the poisoned buffer the last one
// recycled, longest first, so that every shorter diff lands on the bytes of
// a longer one (the dirty-memory rule).
func TestTransientMatchesMakeDiff(t *testing.T) {
	Poison(t)
	const ps = 4096
	for _, w := range []int{1, 2, 4, 8} {
		pages := transientPages(ps, w)
		for _, region := range []*Region{nil, new(Region)} {
			handed := func() int { return 0 }
			if region != nil {
				region.Acquire()
				handed = func() int { return region.Stats().BytesHanded }
			}
			m := transientMem(region, ps, pages["clean"])
			before := handed()
			var enc *byte
			for _, shape := range []string{"alternating", "dense", "sparse", "clean", "dense"} {
				m.Write(0, pages[shape])
				want := MakeDiff(0, pages["twin"], pages[shape], w)
				got := m.MakeTransientDiff(0, pages["twin"], w)
				if !sameEncoding(got, want) || (got != nil && (got.Page != 0 || got.EncodedBytes() != want.EncodedBytes() || got.DataBytes() != want.DataBytes())) {
					t.Fatalf("%d-byte words, region %v, %s page: transient %v, MakeDiff %v", w, region != nil, shape, got, want)
				}
				if got == nil {
					continue
				}
				if enc != nil && &got.enc[:1][0] != enc {
					t.Fatalf("%d-byte words, %s page: the diff did not reuse the recycled buffer", w, shape)
				}
				enc = &got.enc[:1][0]
				m.RecycleDiff(got)
			}
			if region != nil && handed()-before != maxEncodedBytes(ps, w) {
				t.Fatalf("%d-byte words: five diffs drew %d bytes from the region, want one encoding of %d",
					w, handed()-before, maxEncodedBytes(ps, w))
			}
		}
	}
}

// TestTransientWorstCase: the alternating page — as many runs as a page
// can have — encodes within the bound the buffer is drawn at, so the
// compare never grows the buffer, at every word size.
func TestTransientWorstCase(t *testing.T) {
	const ps = 4096
	for _, w := range []int{1, 2, 4, 8} {
		pages := transientPages(ps, w)
		m := transientMem(nil, ps, pages["alternating"])
		d := m.MakeTransientDiff(0, pages["twin"], w)
		if bound := maxEncodedBytes(ps, w); d.runs != ps/w/2 || d.EncodedBytes() > bound || cap(d.enc) != bound {
			t.Fatalf("%d-byte words: alternating diff of %d runs, %d bytes in a %d-byte buffer, bound %d",
				w, d.runs, d.EncodedBytes(), cap(d.enc), bound)
		}
	}
	if got, want := maxEncodedBytes(30, 3), 30+8*5; got != want {
		t.Fatalf("bound of a 30-byte page of 3-byte words (5 runs at most) = %d, want %d", got, want)
	}
}

// TestRecycleDiffTwice: recycling a diff empties it and a second recycle
// does nothing — in particular it does not put the buffer on the free list
// twice, which would hand one buffer to two live diffs.
func TestRecycleDiffTwice(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	m := transientMem(nil, ps, pages["dense"])
	d := m.MakeTransientDiff(0, pages["twin"], 4)
	m.RecycleDiff(d)
	m.RecycleDiff(d)
	m.RecycleDiff(nil)
	m.RecycleDiff(&Diff{Page: 0})
	if d.EncodedBytes() != 0 || d.DataBytes() != 0 || len(runsOf(d)) != 0 {
		t.Fatalf("a recycled diff still carries %d bytes", d.EncodedBytes())
	}
	a := m.MakeTransientDiff(0, pages["twin"], 4)
	b := m.MakeTransientDiff(0, pages["twin"], 4)
	if &a.enc[:1][0] == &b.enc[:1][0] {
		t.Fatal("two live diffs share one buffer")
	}
	if !sameEncoding(a, b) {
		t.Fatal("the same page diffed twice reads differently")
	}
}

// TestTransientCleanKeepsBuffer: a compare that finds nothing returns nil
// and keeps its buffer for the next diff.
func TestTransientCleanKeepsBuffer(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	r := new(Region)
	r.Acquire()
	m := transientMem(r, ps, pages["twin"])
	before := r.Stats().BytesHanded
	for i := 0; i < 3; i++ {
		if d := m.MakeTransientDiff(0, pages["twin"], 4); d != nil {
			t.Fatalf("clean page diffed to %v", d)
		}
	}
	if got := r.Stats().BytesHanded - before; got != maxEncodedBytes(ps, 4) {
		t.Fatalf("three clean compares drew %d bytes, want one encoding", got)
	}
	if m.encs.Get() == nil {
		t.Fatal("the clean compare's buffer is not on the free list")
	}
}

// TestTransientDiffSurvivesPageChange: a transient diff owns its bytes —
// rewriting the page after the compare does not reach it.
func TestTransientDiffSurvivesPageChange(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	m := transientMem(nil, ps, pages["sparse"])
	d := m.MakeTransientDiff(0, pages["twin"], 4)
	m.Write(0, pages["dense"])
	got := append([]byte(nil), pages["twin"]...)
	d.Apply(got)
	if !bytes.Equal(got, pages["sparse"]) {
		t.Fatal("the diff changed with the page it was made from")
	}
}
