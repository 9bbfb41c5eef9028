package mem

import "testing"

// The diff kernels' zero-allocation contracts. They run once per page per
// interval in every protocol, so an allocation that creeps in costs every
// run; the timings are bench's mem.* probes.

// noAllocs fails t when f allocates in steady state (AllocsPerRun warms it
// up with one call first).
func noAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s allocates %v objects/op, want 0", what, n)
	}
}

// TestMakeDiffCleanDoesNotAllocate: a page with no modified word costs no
// diff, through the package function and through ProcMem's scratch.
func TestMakeDiffCleanDoesNotAllocate(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	twin, clean := pages["twin"], pages["clean"]
	noAllocs(t, "MakeDiff on a clean page", func() { MakeDiff(0, twin, clean, 4) })
	m := transientMem(nil, ps, clean)
	noAllocs(t, "ProcMem.MakeDiff on a clean page", func() { m.MakeDiff(0, twin, 4) })
}

// TestTransientDiffDoesNotAllocate: a transient diff encodes into the
// buffer the one before it recycled, whatever the page, and MakeTransientDiff
// inlines, so the diff's header stays on the caller's stack.
func TestTransientDiffDoesNotAllocate(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	for _, shape := range []string{"clean", "sparse", "dense"} {
		m := transientMem(nil, ps, pages[shape])
		twin := pages["twin"]
		noAllocs(t, "MakeTransientDiff + RecycleDiff on a "+shape+" page", func() {
			m.RecycleDiff(m.MakeTransientDiff(0, twin, 4))
		})
	}
}

// TestMergeIntoDoesNotAllocate: at steady state MergeInto reuses its
// output's encoding and the merger's scratch, on a sparse and a dense pair
// of overlapping diffs.
func TestMergeIntoDoesNotAllocate(t *testing.T) {
	const ps = 4096
	pages := transientPages(ps, 4)
	twin := pages["twin"]
	shifted := append([]byte(nil), twin...)
	for i := 128; i < ps; i += 512 {
		shifted[i] ^= 0xAA
	}
	later := MakeDiff(0, twin, shifted, 4)
	for _, shape := range []string{"sparse", "dense"} {
		earlier := MakeDiff(0, twin, pages[shape], 4)
		m := NewMerger(ps)
		var dst *Diff
		noAllocs(t, "MergeInto on "+shape+" diffs", func() {
			var ok bool
			if dst, ok = m.MergeInto(dst, earlier, later); !ok {
				t.Fatal("MergeInto found nothing to merge")
			}
		})
	}
}
