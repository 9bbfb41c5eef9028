package mem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// mustPanic runs f and returns the message it must panic with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		if msg = fmt.Sprint(recover()); msg == "<nil>" {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
	return ""
}

// TestRegionRewindReuses: what a region hands out after Release is the
// memory it handed out before, in the same order, so a second identical
// run makes nothing; every slice is capped at its length so an append
// cannot run into the neighbour; and the counters say so.
func TestRegionRewindReuses(t *testing.T) {
	r := new(Region)
	r.Acquire()
	a, b := r.page(4096), r.page(4096)
	tg := r.Tags(100)
	if len(a) != 4096 || cap(a) != 4096 || len(tg) != 100 || cap(tg) != 100 {
		t.Fatalf("page len/cap %d/%d, tags %d/%d; want exact sizes, capped", len(a), cap(a), len(tg), cap(tg))
	}
	if &a[:1][0] == &b[:1][0] {
		t.Fatal("two pages of one run share memory")
	}
	first := r.Stats()
	if first.BytesMade != regionChunkBytes || first.BytesHanded != 8192 || first.TagsMade != regionChunkTags || first.TagsHanded != 100 || first.Runs != 0 {
		t.Fatalf("after the first run's takes: %+v", first)
	}
	r.Release()
	r.Acquire()
	a2, b2, tg2 := r.page(4096), r.page(4096), r.Tags(100)
	if &a2[0] != &a[0] || &b2[0] != &b[0] || &tg2[0] != &tg[0] {
		t.Fatal("the second run did not get the first run's memory back in order")
	}
	second := r.Stats()
	if second.BytesMade != first.BytesMade || second.TagsMade != first.TagsMade {
		t.Fatalf("the second run made memory: %+v after %+v", second, first)
	}
	if second.BytesHanded != 2*first.BytesHanded || second.TagsHanded != 2*first.TagsHanded || second.Runs != 1 {
		t.Fatalf("handed/runs after two runs: %+v", second)
	}
	if got := r.Size(); got != regionChunkBytes+4*regionChunkTags {
		t.Fatalf("Size = %d, want one chunk of each", got)
	}
}

// TestRegionChunks: a request that does not fit the chunk being carved
// moves to the next one, a request larger than a chunk gets its own, and
// after a rewind the walk over uneven chunks still finds room for
// everything without making more.
func TestRegionChunks(t *testing.T) {
	r := new(Region)
	r.Acquire()
	sizes := []int{regionChunkBytes - 100, 4096, 3 * regionChunkBytes, 4096}
	for _, n := range sizes {
		if got := r.page(n); len(got) != n {
			t.Fatalf("asked for %d bytes, got %d", n, len(got))
		}
	}
	made := r.Stats().BytesMade
	// The bump never goes back: the last 4 KB opens a fourth chunk though
	// the second has room.
	if want := 2*regionChunkBytes + 3*regionChunkBytes + regionChunkBytes; made != want {
		t.Fatalf("made %d bytes, want %d", made, want)
	}
	r.Release()
	r.Acquire()
	for _, n := range sizes {
		r.page(n)
	}
	if got := r.Stats().BytesMade; got != made {
		t.Fatalf("the same requests after a rewind made %d more bytes", got-made)
	}
}

// TestRegionHolder: a region serves one run at a time, and says so.
func TestRegionHolder(t *testing.T) {
	r := new(Region)
	r.Acquire()
	if msg := mustPanic(t, "second Acquire", r.Acquire); !strings.Contains(msg, "already serving a run") {
		t.Errorf("second Acquire: %q", msg)
	}
	r.Release()
	if msg := mustPanic(t, "second Release", r.Release); !strings.Contains(msg, "serves no run") {
		t.Errorf("second Release: %q", msg)
	}
	r.Acquire()
}

// TestNilRegionIsTheHeap: without a region the same calls allocate zeroed
// memory.
func TestNilRegionIsTheHeap(t *testing.T) {
	var r *Region
	if p := r.page(64); len(p) != 64 || !bytes.Equal(p, make([]byte, 64)) {
		t.Fatal("nil region page: want 64 zero bytes")
	}
	if tg := r.Tags(8); len(tg) != 8 || tg[0] != 0 || tg[7] != 0 {
		t.Fatal("nil region tags: want 8 zero words")
	}
	if img := r.growImage([]byte{1, 2}, 6); !bytes.Equal(img, []byte{1, 2, 0, 0, 0, 0}) {
		t.Fatalf("nil region growImage: %v", img)
	}
}

// TestRegionPoisonAndTrim: Poison reaches every byte and word the region
// holds — handed out or not, the image's spare capacity too — and Trim
// gives back chunks from the end, then the image, until what is left fits.
func TestRegionPoisonAndTrim(t *testing.T) {
	r := new(Region)
	r.Acquire()
	s := NewSpaceIn(r, 4096)
	s.Alloc("x", 3*4096, 0)
	for i := 0; i < 300; i++ { // two chunks
		r.page(4096)
	}
	tg := r.Tags(10)
	r.Release()
	r.Poison()
	for i, c := range r.bytes.chunks {
		if c[0] != regionPoison || c[len(c)-1] != regionPoison {
			t.Fatalf("chunk %d not poisoned end to end", i)
		}
	}
	if img := r.image[:cap(r.image)]; len(img) < 3*4096 || img[0] != regionPoison || img[len(img)-1] != regionPoison {
		t.Fatalf("image buffer (%d bytes) not poisoned end to end", len(img))
	}
	if tg[0] != 0xA5A5A5A5 || r.tags.chunks[0][regionChunkTags-1] != 0xA5A5A5A5 {
		t.Fatal("tag chunk not poisoned end to end")
	}

	tagBytes, img := 4*regionChunkTags, cap(r.image)
	r.Trim(regionChunkBytes + tagBytes + img)
	if len(r.bytes.chunks) != 1 || r.image == nil {
		t.Fatalf("Trim to one chunk: %d chunks, image kept %v", len(r.bytes.chunks), r.image != nil)
	}
	r.Trim(tagBytes + img)
	if len(r.bytes.chunks) != 0 || r.image == nil {
		t.Fatalf("Trim to the image: %d chunks, image kept %v", len(r.bytes.chunks), r.image != nil)
	}
	r.Trim(tagBytes)
	if r.image != nil || r.Size() != tagBytes {
		t.Fatalf("Trim below the image: image kept %v, size %d", r.image != nil, r.Size())
	}
	// A trimmed region still serves.
	r.Acquire()
	if p := r.page(4096); len(p) != 4096 {
		t.Fatal("trimmed region handed out nothing")
	}
}

// dirtySpace builds the same small space twice through one region,
// poisoning in between, and returns the second build with its region: what
// it reads must not depend on what the region held.
func dirtySpace(t *testing.T, build func(s *Space)) (*Space, *Region) {
	t.Helper()
	r := new(Region)
	r.Acquire()
	big := NewSpaceIn(r, 4096)
	big.Alloc("big", 64*4096, 0)
	for pg := 0; pg < 64; pg++ {
		NewProcMem(big, 0).Frame(pg)
	}
	r.Release()
	r.Poison()
	r.Acquire()
	s := NewSpaceIn(r, 4096)
	build(s)
	return s, r
}

// TestDirtyImage: allocAt grows the image into an earlier run's image and
// clears exactly what it exposes — the new extent reads zero except for
// WriteInit's bytes, and the spare capacity behind it is left alone (and
// out of InitImage's reach).
func TestDirtyImage(t *testing.T) {
	s, r := dirtySpace(t, func(s *Space) {
		a := s.Alloc("a", 100, 0)
		s.WriteInit(a+10, []byte{7, 8, 9})
		s.AllocPacked("b", 5000, 1)
	})
	made := r.Stats().BytesMade
	img := s.InitImage()
	if len(img) != 2*4096 || cap(img) != len(img) {
		t.Fatalf("image len %d cap %d, want 8192 capped", len(img), cap(img))
	}
	want := make([]byte, len(img))
	copy(want[10:], []byte{7, 8, 9})
	if !bytes.Equal(img, want) {
		t.Fatal("image grown into dirty capacity does not read as zeroes plus its own writes")
	}
	if spare := s.init[:cap(s.init)]; spare[len(img)] != regionPoison || spare[len(spare)-1] != regionPoison {
		t.Error("allocAt cleared capacity beyond what it exposed")
	}
	if &img[0] != &r.image[:1][0] {
		t.Error("the second space did not grow in the region's image buffer")
	}
	s.Alloc("c", 10*4096, 0)
	if got := r.Stats().BytesMade; got != made {
		t.Errorf("growing within the kept image buffer made %d bytes", got-made)
	}
}

// TestDirtyFrames: a frame made in dirty memory holds the page's image,
// and zeroes where the image does not reach; a twin is overwritten whole.
func TestDirtyFrames(t *testing.T) {
	s, r := dirtySpace(t, func(s *Space) {
		a := s.Alloc("a", 2*4096, 0)
		s.WriteInit(a+4096, []byte{1, 2, 3})
	})
	m := NewProcMem(s, 1) // homes nothing: both frames come lazily
	want := make([]byte, 4096)
	if got := m.Frame(0).Data; !bytes.Equal(got, want) {
		t.Fatal("untouched page read from a dirty region is not zero")
	}
	copy(want, []byte{1, 2, 3})
	if got := m.Frame(1).Data; !bytes.Equal(got, want) {
		t.Fatal("page read from a dirty region is not its image")
	}
	m.MakeTwin(1)
	if !bytes.Equal(m.Frame(1).Twin, want) {
		t.Fatal("twin made in a dirty region is not the page")
	}
	// Past the image's end (a page the space has not grown to) the frame
	// is cleared, not left as found.
	s.size += 4096
	m2 := &ProcMem{space: s, frames: make([]Frame, 3)}
	if got := m2.Frame(2).Data; !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("a frame beyond the image's end kept the region's bytes")
	}
	if r.Stats().BytesHanded == 0 {
		t.Fatal("the frames did not come from the region")
	}
}

// TestInstallAdoptsColdPage: a page never touched takes the buffer as its
// frame; a page with a frame keeps its own and copies.
func TestInstallAdoptsColdPage(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("x", 2*4096, 0)
	m := NewProcMem(s, 1)
	snap := bytes.Repeat([]byte{9}, 4096)
	if !m.Install(0, snap) || &m.Peek(0).Data[0] != &snap[0] {
		t.Fatal("cold page did not adopt the buffer")
	}
	own := m.Frame(1).Data
	if m.Install(1, snap) || &m.Peek(1).Data[0] != &own[0] || !bytes.Equal(own, snap) {
		t.Fatal("touched page must keep its frame and take the bytes")
	}
	if m.Install(0, make([]byte, 4096)) || m.Peek(0).Data[0] != 0 {
		t.Fatal("an adopted frame is a frame: the next install copies into it")
	}
}
