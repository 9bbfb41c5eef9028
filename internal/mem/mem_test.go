package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpaceAllocPageAligned(t *testing.T) {
	s := NewSpace(4096)
	a := s.Alloc("a", 100, 0)
	b := s.Alloc("b", 100, 1)
	if a != 0 {
		t.Fatalf("first alloc at %d, want 0", a)
	}
	if b != 4096 {
		t.Fatalf("second alloc at %d, want 4096 (page aligned)", b)
	}
	if s.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", s.Pages())
	}
	if s.InitHome(0) != 0 || s.InitHome(1) != 1 {
		t.Fatalf("homes: %d %d", s.InitHome(0), s.InitHome(1))
	}
}

func TestSpaceAllocPacked(t *testing.T) {
	s := NewSpace(4096)
	a := s.AllocPacked("a", 100, 0)
	b := s.AllocPacked("b", 100, 0)
	if b != a+100 {
		t.Fatalf("packed alloc at %d, want %d", b, a+100)
	}
}

func TestSpaceInitImage(t *testing.T) {
	s := NewSpace(4096)
	a := s.Alloc("x", 16, 0)
	s.WriteInit(a+4, []byte{1, 2, 3, 4})
	img := s.InitImage()
	if !bytes.Equal(img[a+4:a+8], []byte{1, 2, 3, 4}) {
		t.Fatal("init image not written")
	}
}

// TestSpaceAllocLinearGrowth: a long run of small allocations allocates
// O(final image) bytes — not the whole image again per allocation — while
// the image stays exactly the page-ceiled extent, keeps everything written
// to it, reads zero elsewhere, and the first allocation to reach a page
// still owns its home.
func TestSpaceAllocLinearGrowth(t *testing.T) {
	const n, page = 1000, 4096
	type write struct {
		at Addr
		b  [3]byte
	}
	var writes []write
	var homes []int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSpace(page)
	for i := 0; i < n; i++ {
		size, home := 100+i%7, i%5
		var a Addr
		if i%3 == 2 {
			a = s.AllocPacked("packed", size, home)
		} else {
			a = s.Alloc("aligned", size, home)
		}
		w := write{a + i%50, [3]byte{byte(i), byte(i >> 8), 0xA5}}
		s.WriteInit(w.at, w.b[:])
		writes = append(writes, w)
		for pg := len(homes); pg <= (a+size-1)/page; pg++ {
			homes = append(homes, home)
		}
		if got, want := len(s.InitImage()), pageCeil(s.Size(), page); got != want {
			t.Fatalf("after %d allocations the image is %d bytes, want the page-ceiled extent %d", i+1, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	img := s.InitImage()
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(len(img)) {
		t.Fatalf("%d allocations allocated %d bytes for a %d-byte image: growth must be geometric", n, got, len(img))
	}
	want := make([]byte, len(img))
	for _, w := range writes {
		copy(want[w.at:], w.b[:])
	}
	if !bytes.Equal(img, want) {
		t.Fatal("image contents changed across growth")
	}
	if len(homes) != s.Pages() {
		t.Fatalf("%d pages, oracle has %d", s.Pages(), len(homes))
	}
	for pg, h := range homes {
		if s.InitHome(pg) != h {
			t.Fatalf("page %d home = %d, want %d", pg, s.InitHome(pg), h)
		}
	}
}

func TestPageOfAndBase(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("x", 3*4096, 0)
	if s.PageOf(0) != 0 || s.PageOf(4095) != 0 || s.PageOf(4096) != 1 {
		t.Fatal("PageOf wrong")
	}
	if s.PageBase(2) != 8192 {
		t.Fatal("PageBase wrong")
	}
}

func TestProcMemHomeValidity(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("a", 4096, 0)
	s.Alloc("b", 4096, 3)
	m0 := NewProcMem(s, 0)
	m3 := NewProcMem(s, 3)
	if !m0.Peek(0).Valid || m0.Peek(1).Valid {
		t.Fatal("proc 0 should hold page 0 only")
	}
	if m3.Peek(0).Valid || !m3.Peek(1).Valid {
		t.Fatal("proc 3 should hold page 1 only")
	}
}

func TestProcMemReadWriteSpanningPages(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("x", 2*4096, 0)
	m := NewProcMem(s, 0)
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i + 1)
	}
	m.Write(4096-50, src)
	dst := make([]byte, 100)
	m.Read(4096-50, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("spanning read/write mismatch")
	}
}

func TestTwinLifecycle(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("x", 4096, 0)
	m := NewProcMem(s, 0)
	m.Write(0, []byte{1})
	m.MakeTwin(0)
	m.Write(0, []byte{2})
	f := m.Frame(0)
	if f.Twin[0] != 1 || f.Data[0] != 2 {
		t.Fatal("twin should snapshot pre-write state")
	}
	first := &f.Twin[0]
	m.DropTwin(0)
	if m.Frame(0).Twin != nil {
		t.Fatal("twin not dropped")
	}
	// The next twin reuses the dropped buffer and snapshots afresh.
	m.MakeTwin(0)
	if &f.Twin[0] != first || len(f.Twin) != 4096 || f.Twin[0] != 2 {
		t.Fatalf("second twin: reused %v, len %d, first byte %d; want the dropped buffer holding the current page",
			&f.Twin[0] == first, len(f.Twin), f.Twin[0])
	}
	// A stolen twin (TreadMarks' lazy diffing) comes back through
	// RecycleTwin once its diff is made, and the diff does not alias it.
	stolen := f.Twin
	f.Twin = nil
	m.Write(0, []byte{3})
	d := m.MakeDiff(0, stolen, 4)
	m.RecycleTwin(stolen)
	m.MakeTwin(0)
	if &f.Twin[0] != first || f.Twin[0] != 3 {
		t.Fatalf("third twin: reused %v, first byte %d; want the recycled stolen buffer holding the current page",
			&f.Twin[0] == first, f.Twin[0])
	}
	out := make([]byte, 4096)
	d.Apply(out)
	if got := runsOf(d); len(got) != 1 || got[0].off != 0 || out[0] != 3 {
		t.Fatalf("diff against the stolen twin: runs %+v, byte 0 patched to %d; want one run at 0 carrying 3", got, out[0])
	}
}

func TestInvalidate(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("x", 4096, 0)
	m := NewProcMem(s, 0)
	m.Invalidate(0)
	if m.Peek(0).Valid {
		t.Fatal("invalidate failed")
	}
}

func TestMakeDiffEmpty(t *testing.T) {
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	if d := MakeDiff(0, a, b, 4); d != nil {
		t.Fatal("identical pages should produce nil diff")
	}
}

func TestMakeDiffRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 1
	cur[5] = 2  // words 0 and 1 modified -> one run [0,8)
	cur[20] = 3 // word 5 -> second run [20,24)
	d := MakeDiff(3, twin, cur, 4)
	if d == nil || d.Page != 3 {
		t.Fatal("diff missing")
	}
	runs := runsOf(d)
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if runs[0].off != 0 || len(runs[0].data) != 8 {
		t.Fatalf("run0 = %+v", runs[0])
	}
	if runs[1].off != 20 || len(runs[1].data) != 4 {
		t.Fatalf("run1 = %+v", runs[1])
	}
	if d.DataBytes() != 12 || d.EncodedBytes() != 12+2*8 {
		t.Fatalf("sizes: %d %d", d.DataBytes(), d.EncodedBytes())
	}
	if cov := coverage(t, d, 64); !cov[5] || cov[10] || !cov[20] {
		t.Fatal("coverage wrong")
	}
}

// TestMakeDiffBadWordSize: a word size the kernel cannot step by is a
// diagnosed panic, not a scan that never advances (zero) or a slice bound
// (negative).
func TestMakeDiffBadWordSize(t *testing.T) {
	twin, cur := make([]byte, 64), make([]byte, 64)
	cur[9] = 1
	for _, w := range []int{0, -4} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprintf("mem: diff word size %d", w)) {
					t.Errorf("wordBytes %d: panic %q, want one naming the word size", w, msg)
				}
			}()
			MakeDiff(0, twin, cur, w)
			t.Errorf("wordBytes %d: MakeDiff returned", w)
		}()
	}
}

// TestMisuseIsDiagnosed: a twin and a page of different sizes, diffs of
// two pages merged into one, and an allocation of no bytes are panics that
// name the mistake, not a wrong diff or a zero-sized region.
func TestMisuseIsDiagnosed(t *testing.T) {
	cur := make([]byte, 64)
	cur[3] = 1
	for _, tc := range []struct {
		what, want string
		f          func()
	}{
		{"MakeDiff of a short twin", "mem: diff size mismatch 32 vs 64", func() { MakeDiff(0, make([]byte, 32), cur, 4) }},
		{"Merge across pages", "mem: merging diffs of pages 0 and 1", func() {
			NewMerger(64).Merge(MakeDiff(0, make([]byte, 64), cur, 4), MakeDiff(1, make([]byte, 64), cur, 4))
		}},
		{"Alloc of zero bytes", `mem: allocation "x" with non-positive size 0`, func() { NewSpace(64).Alloc("x", 0, 0) }},
	} {
		if msg := mustPanic(t, tc.what, tc.f); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %q, want %q", tc.what, msg, tc.want)
		}
	}
}

// TestRunsStopsAtBreak: a range over Runs that breaks sees no further run
// (the iterator honours yield's false, as range-over-func requires).
func TestRunsStopsAtBreak(t *testing.T) {
	twin, cur := make([]byte, 64), make([]byte, 64)
	cur[0], cur[20], cur[40] = 1, 2, 3
	d := MakeDiff(0, twin, cur, 4)
	var offs []int
	for off := range d.Runs() {
		offs = append(offs, off)
		if len(offs) == 2 {
			break
		}
	}
	if fmt.Sprint(offs) != "[0 20]" {
		t.Errorf("runs seen before the break = %v, want [0 20]", offs)
	}
}

// TestProcMemMakeDiff: the entry point the protocols use yields the package
// function's encoding, and a diff owns its bytes — the next compare reuses
// the processor's scratch without disturbing it.
func TestProcMemMakeDiff(t *testing.T) {
	s := NewSpace(256)
	s.Alloc("x", 256, 0)
	m := NewProcMem(s, 0)
	m.MakeTwin(0)
	twin := m.Frame(0).Twin
	if d := m.MakeDiff(0, twin, 4); d != nil {
		t.Fatalf("clean page gave %d runs", d.runs)
	}
	m.Write(8, []byte{1, 2, 3, 4, 5})
	m.Write(100, []byte{6})
	d1 := m.MakeDiff(0, twin, 4)
	want := MakeDiff(0, twin, m.Frame(0).Data, 4)
	if d1.runs != 2 || !bytes.Equal(d1.enc, want.enc) || d1.Page != want.Page {
		t.Fatalf("ProcMem.MakeDiff = %d runs %v, package MakeDiff = %d runs %v", d1.runs, d1.enc, want.runs, want.enc)
	}
	m.Write(8, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	d2 := m.MakeDiff(0, twin, 4)
	if !bytes.Equal(d1.enc, want.enc) {
		t.Fatal("a later MakeDiff rewrote an earlier diff: the diff aliases the scratch")
	}
	if d2.ID == d1.ID || bytes.Equal(d2.enc, d1.enc) {
		t.Fatal("second diff is not its own")
	}
}

// TestDiffRoundTripProperty: applying MakeDiff(twin, cur) to a copy of twin
// reproduces cur exactly, for arbitrary modifications.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed []byte) bool {
		const ps = 256
		twin := make([]byte, ps)
		cur := make([]byte, ps)
		for i := range twin {
			twin[i] = byte(i * 7)
			cur[i] = twin[i]
		}
		for i, b := range seed {
			cur[(int(b)*13+i)%ps] = byte(i)
		}
		d := MakeDiff(0, twin, cur, 4)
		out := append([]byte(nil), twin...)
		if d != nil {
			d.Apply(out)
		}
		return bytes.Equal(out, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDiffsProperty: merging two sequential diffs equals diffing the
// final state directly.
func TestMergeDiffsProperty(t *testing.T) {
	f := func(mods1, mods2 []byte) bool {
		const ps = 256
		base := make([]byte, ps)
		for i := range base {
			base[i] = byte(i)
		}
		v1 := append([]byte(nil), base...)
		for i, b := range mods1 {
			v1[(int(b)*11+i)%ps] = byte(i + 100)
		}
		v2 := append([]byte(nil), v1...)
		for i, b := range mods2 {
			v2[(int(b)*17+i)%ps] = byte(i + 200)
		}
		d1 := MakeDiff(0, base, v1, 4)
		d2 := MakeDiff(0, v1, v2, 4)
		merged := MergeDiffs(ps, d1, d2)
		out := append([]byte(nil), base...)
		if merged != nil {
			merged.Apply(out)
		}
		return bytes.Equal(out, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDiffsNil(t *testing.T) {
	if MergeDiffs(64, nil, nil) != nil {
		t.Fatal("merging nothing should be nil")
	}
}

func TestMergeDiffsLaterWins(t *testing.T) {
	d1, d2 := &Diff{Page: 0}, &Diff{Page: 0}
	d1.AppendRun(0, []byte{1, 1, 1, 1})
	d2.AppendRun(0, []byte{2, 2, 2, 2})
	m := MergeDiffs(16, d1, d2)
	out := make([]byte, 16)
	m.Apply(out)
	if out[0] != 2 {
		t.Fatal("later diff should win")
	}
}

func TestRehome(t *testing.T) {
	s := NewSpace(1024)
	s.Alloc("a", 3*1024, 0)
	s.Alloc("b", 1024, 2)
	for pg := 0; pg < 3; pg++ {
		if s.InitHome(pg) != 0 {
			t.Fatalf("page %d home = %d before rehome", pg, s.InitHome(pg))
		}
	}
	s.Rehome(func(pg int) int { return pg + 7 })
	for pg := 0; pg < s.Pages(); pg++ {
		if got := s.InitHome(pg); got != pg+7 {
			t.Fatalf("page %d home = %d after rehome, want %d", pg, got, pg+7)
		}
	}
}
