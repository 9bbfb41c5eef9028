package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

// randomPagePair derives a (twin, cur) pair of size ps from a modification
// seed, mutating pseudo-random word-aligned-ish byte positions.
func randomPagePair(ps int, mods []byte) (twin, cur []byte) {
	twin = make([]byte, ps)
	cur = make([]byte, ps)
	for i := range twin {
		twin[i] = byte(i * 31)
		cur[i] = twin[i]
	}
	for i, b := range mods {
		cur[(int(b)*13+i*7)%ps] = byte(i + 1)
	}
	return twin, cur
}

// run is one decoded run of a diff.
type run struct {
	off  int
	data []byte
}

// runsOf collects what the run iterator yields.
func runsOf(d *Diff) []run {
	var out []run
	for off, data := range d.Runs() {
		out = append(out, run{off, data})
	}
	return out
}

// coverage marks the bytes of a ps-byte page the diff's runs rewrite, as
// the run iterator reports them, and fails if two runs claim one byte. A
// nil diff covers nothing.
func coverage(t *testing.T, d *Diff, ps int) []bool {
	t.Helper()
	cov := make([]bool, ps)
	if d == nil {
		return cov
	}
	for off, data := range d.Runs() {
		for i := off; i < off+len(data); i++ {
			if cov[i] {
				t.Fatalf("byte %d is in two runs", i)
			}
			cov[i] = true
		}
	}
	return cov
}

// modifiedWords is the bitmap oracle: the bytes of every 4-byte word in
// which the two pages differ.
func modifiedWords(a, b []byte) []bool {
	mod := make([]bool, len(a))
	for w := 0; w < len(a); w += 4 {
		if !bytes.Equal(a[w:w+4], b[w:w+4]) {
			mod[w], mod[w+1], mod[w+2], mod[w+3] = true, true, true, true
		}
	}
	return mod
}

// TestCoversBitmapOracle: the run iterator must report exactly the bytes a
// bitmap oracle marks modified, for arbitrary diffs and every byte offset
// of the page.
func TestCoversBitmapOracle(t *testing.T) {
	f := func(mods []byte) bool {
		const ps = 256
		twin, cur := randomPagePair(ps, mods)
		cov := coverage(t, MakeDiff(0, twin, cur, 4), ps)
		oracle := modifiedWords(twin, cur)
		for off := 0; off < ps; off++ {
			if cov[off] != oracle[off] {
				t.Logf("byte %d covered = %v, oracle %v", off, cov[off], oracle[off])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCoversMergedDiff runs the oracle over merged diffs too, whose runs
// come from the Merger's present-scan rather than MakeDiff: a byte is
// covered when either step modified its word.
func TestCoversMergedDiff(t *testing.T) {
	f := func(mods1, mods2 []byte) bool {
		const ps = 256
		base, v1 := randomPagePair(ps, mods1)
		v2 := append([]byte(nil), v1...)
		for i, b := range mods2 {
			v2[(int(b)*17+i*5)%ps] = byte(i + 200)
		}
		cov := coverage(t, MergeDiffs(ps, MakeDiff(0, base, v1, 4), MakeDiff(0, v1, v2, 4)), ps)
		first, second := modifiedWords(base, v1), modifiedWords(v1, v2)
		for off := 0; off < ps; off++ {
			if cov[off] != (first[off] || second[off]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sameEncoding reports whether two diffs (either may be nil) carry the same
// runs, byte for byte.
func sameEncoding(a, b *Diff) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.runs == b.runs && bytes.Equal(a.enc, b.enc)
}

// genericDiff is MakeDiff through the word-by-word reference kernel.
func genericDiff(twin, cur []byte, wordBytes int) *Diff {
	enc, runs := appendRunsGeneric(nil, twin, cur, wordBytes)
	if runs == 0 {
		return nil
	}
	return &Diff{enc: enc, runs: runs}
}

// TestMakeDiffFastMatchesGeneric pins the uint64 fast path to the generic
// word-by-word reference for every supported word size.
func TestMakeDiffFastMatchesGeneric(t *testing.T) {
	for _, wordBytes := range []int{1, 2, 4, 8} {
		wordBytes := wordBytes
		f := func(mods []byte) bool {
			const ps = 128
			twin, cur := randomPagePair(ps, mods)
			return sameEncoding(MakeDiff(0, twin, cur, wordBytes), genericDiff(twin, cur, wordBytes))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("wordBytes=%d: %v", wordBytes, err)
		}
	}
}

// TestMakeDiffBlockSkipEdges: the clean-stretch skip crosses the page 64
// bytes at a time from wherever a clean 8-byte window left it, so the
// pages that could fool it are the ones whose only change sits at an edge
// of that stride: the first word, the last word, and the word either side
// of every 64-byte boundary, alone and together.
func TestMakeDiffBlockSkipEdges(t *testing.T) {
	const ps = 512
	for _, wordBytes := range []int{1, 2, 4, 8} {
		check := func(what string, offs ...int) {
			t.Helper()
			twin, cur := make([]byte, ps), make([]byte, ps)
			for i := range twin {
				twin[i] = byte(i * 31)
			}
			copy(cur, twin)
			for _, off := range offs {
				cur[off+wordBytes-1] ^= 0x80 // the word's last byte: a narrower compare would miss it
			}
			got, ref := MakeDiff(0, twin, cur, wordBytes), genericDiff(twin, cur, wordBytes)
			if !sameEncoding(got, ref) {
				t.Fatalf("%d-byte words, %s %v changed:\n got %v\nwant %v", wordBytes, what, offs, got, ref)
			}
			if got == nil || got.runs > len(offs) {
				t.Fatalf("%d-byte words, %s %v changed: diff %v", wordBytes, what, offs, got)
			}
		}
		check("first word", 0)
		check("last word", ps-wordBytes)
		check("first and last word", 0, ps-wordBytes)
		for b := 64; b < ps; b += 64 {
			check("word below the boundary", b-wordBytes)
			check("word at the boundary", b)
			check("words either side of the boundary", b-wordBytes, b)
			// The skip starts 8 bytes past a clean window, not at a line:
			// put the window at every word of the line before.
			check("word at the boundary after a dirty one", b-64+wordBytes, b)
		}
		var every []int
		for b := 64; b < ps; b += 64 {
			every = append(every, b-wordBytes, b+wordBytes)
		}
		check("a word either side of every boundary", every...)
	}
}

// TestMakeDiffOddGeometry exercises the generic fallback (word size not
// dividing 8, page size not a multiple of 8) through the public entry.
func TestMakeDiffOddGeometry(t *testing.T) {
	twin := make([]byte, 30)
	cur := make([]byte, 30)
	cur[2] = 1
	cur[29] = 7 // inside the trailing partial word
	d := MakeDiff(0, twin, cur, 3)
	out := make([]byte, 30)
	d.Apply(out)
	if !bytes.Equal(out, cur) {
		t.Fatalf("round trip failed: %v vs %v", out, cur)
	}
}

// TestMergerMatchesMergeDiffs: a reused Merger produces the same merges as
// the allocating wrapper, back to back, with scratch correctly cleared
// between calls.
func TestMergerMatchesMergeDiffs(t *testing.T) {
	const ps = 256
	m := NewMerger(ps)
	f := func(mods1, mods2 []byte) bool {
		base, v1 := randomPagePair(ps, mods1)
		v2 := append([]byte(nil), v1...)
		for i, b := range mods2 {
			v2[(int(b)*17+i*3)%ps] = byte(i + 200)
		}
		d1 := MakeDiff(0, base, v1, 4)
		d2 := MakeDiff(0, v1, v2, 4)
		return sameEncoding(m.Merge(d1, d2), MergeDiffs(ps, d1, d2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeIntoReuse: the steady-state path reuses dst and still merges
// correctly run after run.
func TestMergeIntoReuse(t *testing.T) {
	const ps = 256
	m := NewMerger(ps)
	var dst *Diff
	for round := 0; round < 50; round++ {
		mods1 := []byte{byte(round), byte(round * 3), byte(round * 7)}
		mods2 := []byte{byte(round * 5), byte(round*11 + 1)}
		base, v1 := randomPagePair(ps, mods1)
		v2 := append([]byte(nil), v1...)
		for i, b := range mods2 {
			v2[(int(b)*17+i)%ps] = byte(i + 200)
		}
		d1 := MakeDiff(0, base, v1, 4)
		d2 := MakeDiff(0, v1, v2, 4)
		var ok bool
		dst, ok = m.MergeInto(dst, d1, d2)
		if !ok {
			t.Fatalf("round %d: no modifications reported", round)
		}
		out := append([]byte(nil), base...)
		dst.Apply(out)
		if !bytes.Equal(out, v2) {
			t.Fatalf("round %d: MergeInto result does not reproduce final state", round)
		}
	}
}

// TestMergeIntoEmpty: merging nothing leaves dst untouched and reports
// false.
func TestMergeIntoEmpty(t *testing.T) {
	m := NewMerger(64)
	if _, ok := m.MergeInto(nil, nil, nil); ok {
		t.Fatal("merging nils should report no modifications")
	}
}
