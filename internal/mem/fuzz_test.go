package mem

import (
	"bytes"
	"testing"
)

// FuzzMakeDiff drives the twin-compare kernel — through MakeDiff and
// ProcMem.MakeTransientDiff — and the merger from three fuzzed versions of
// one page (a, then b, then c) and a fuzzed word size, unusable sizes
// included. The seed corpus is the f.Add list below plus
// testdata/fuzz/FuzzMakeDiff; CI gives it a short budget
// (`go test -fuzz FuzzMakeDiff ./internal/mem`).
func FuzzMakeDiff(f *testing.F) {
	page := func(n int, mod func(i int) bool) (twin, cur []byte) {
		twin, cur = make([]byte, n), make([]byte, n)
		for i := range twin {
			twin[i] = byte(i * 31)
			cur[i] = twin[i]
			if mod(i) {
				cur[i] ^= 0xFF
			}
		}
		return twin, cur
	}
	clean, _ := page(256, func(int) bool { return false })
	_, sparse := page(256, func(i int) bool { return i%64 == 0 })
	_, dense := page(256, func(i int) bool { return i%4 == 0 })
	_, alternating := page(256, func(i int) bool { return i%8 < 4 })
	_, tail := page(256, func(i int) bool { return i >= 250 })
	// The clean-stretch skip's stride: nothing but the page's two end
	// words, and a word either side of every 64-byte boundary.
	_, ends := page(256, func(i int) bool { return i < 4 || i >= 252 })
	_, lineEdges := page(256, func(i int) bool { return i >= 60 && i < 252 && (i%64 >= 60 || i%64 < 4) })
	f.Add(clean, clean, clean, int8(4))
	f.Add(clean, ends, lineEdges, int8(4))
	f.Add(clean, lineEdges, ends, int8(8))
	f.Add(clean, sparse, dense, int8(4))
	f.Add(clean, dense, sparse, int8(8))
	f.Add(clean, alternating, tail, int8(4))
	f.Add(clean, alternating, clean, int8(1))
	f.Add(clean[:30], tail[226:], sparse[:30], int8(3)) // generic path: 30-byte page, 3-byte words
	f.Add(clean[:70], dense[:70], alternating[:70], int8(16))
	f.Add(clean, sparse, dense, int8(0))
	f.Add(clean[:30], dense[:30], clean[:30], int8(-3))

	f.Fuzz(func(t *testing.T, a, b, c []byte, w int8) {
		n := min(len(a), len(b), len(c), 4096)
		a, b, c = a[:n], b[:n], c[:n]
		wordBytes := int(w)
		if wordBytes <= 0 {
			// No scan can step by such a word: a diagnosed panic, never a
			// spin (zero) or a slice bound (negative).
			defer func() {
				if recover() == nil {
					t.Fatalf("MakeDiff accepted %d-byte words", wordBytes)
				}
			}()
		}

		d1 := MakeDiff(0, a, b, wordBytes)
		if ref := genericDiff(a, b, wordBytes); !sameEncoding(d1, ref) {
			t.Fatalf("fast path and generic reference disagree at %d-byte words:\n%v\n%v", wordBytes, d1, ref)
		}
		if (d1 == nil) != bytes.Equal(a, b) {
			t.Fatalf("diff is nil = %v, pages equal = %v", d1 == nil, bytes.Equal(a, b))
		}
		d2 := MakeDiff(0, b, c, wordBytes)

		// The transient entry point encodes the same diffs, the first into
		// a buffer full of garbage, the second into the one the first
		// recycled.
		pm := &ProcMem{space: &Space{pageSize: n}, frames: []Frame{{Data: b}}}
		pm.encs.Put(bytes.Repeat([]byte{regionPoison}, maxEncodedBytes(n, wordBytes)))
		for _, step := range []struct {
			twin, cur []byte
			want      *Diff
		}{{a, b, d1}, {b, c, d2}} {
			pm.frames[0].Data = step.cur
			got := pm.MakeTransientDiff(0, step.twin, wordBytes)
			if !sameEncoding(got, step.want) {
				t.Fatalf("transient diff %v, MakeDiff %v", got, step.want)
			}
			pm.RecycleDiff(got)
		}

		for _, d := range []*Diff{d1, d2} {
			if d == nil {
				continue
			}
			runs, data, prevEnd := 0, 0, -1
			for off, run := range d.Runs() {
				end := off + len(run)
				switch {
				case len(run) == 0:
					t.Fatalf("run %d at %d is empty", runs, off)
				case off%wordBytes != 0 || (end%wordBytes != 0 && end != n):
					t.Fatalf("run %d [%d,%d) is not aligned to %d-byte words in a %d-byte page", runs, off, end, wordBytes, n)
				case end > n:
					t.Fatalf("run %d [%d,%d) leaves the %d-byte page", runs, off, end, n)
				case off <= prevEnd:
					t.Fatalf("run %d starts at %d, the previous one ended at %d: not ordered, or adjacent", runs, off, prevEnd)
				}
				runs, data, prevEnd = runs+1, data+len(run), end
			}
			if runs != d.runs || d.DataBytes() != data || d.EncodedBytes() != runHeaderBytes*runs+data {
				t.Fatalf("%d runs carrying %d bytes, but runs = %d, DataBytes = %d, EncodedBytes = %d",
					runs, data, d.runs, d.DataBytes(), d.EncodedBytes())
			}
		}

		// Applying a diff to a copy of its twin reproduces the page.
		got := append([]byte(nil), a...)
		if d1 != nil {
			d1.Apply(got)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("Apply onto the twin does not reproduce the page")
		}

		// Merge(d1, d2) is d1 then d2, on the page they were made from and
		// on one they were not.
		m := NewMerger(n)
		merged := m.Merge(d1, d2)
		var into *Diff
		into, _ = m.MergeInto(into, d1, d2)
		if (merged == nil) != (d1 == nil && d2 == nil) || (merged != nil && !sameEncoding(merged, into)) {
			t.Fatalf("Merge = %v, MergeInto = %v, inputs %v and %v", merged, into, d1, d2)
		}
		other := make([]byte, n)
		for i := range other {
			other[i] = ^a[i]
		}
		for _, base := range [][]byte{a, other} {
			want := append([]byte(nil), base...)
			got := append([]byte(nil), base...)
			for _, d := range []*Diff{d1, d2} {
				if d != nil {
					d.Apply(want)
				}
			}
			if merged != nil {
				merged.Apply(got)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the merged diff is not d1 then d2")
			}
		}
	})
}
