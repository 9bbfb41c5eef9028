package mem

import (
	"aecdsm/internal/pool"
	"aecdsm/internal/trace"
)

// Frame is one processor's copy of one shared page, with the software
// MMU bits a SW-DSM keeps per page. With no page-fault hardware available,
// the Valid/WriteOK bits are checked explicitly on every DSM access, which
// is the object-level coherence simulation this reproduction uses in place
// of mprotect/SIGSEGV.
type Frame struct {
	// Data is this processor's copy of the page; nil until first touched.
	Data []byte
	// Valid: the copy may be read.
	Valid bool
	// WriteEpoch: writes are allowed without a protocol trap while the
	// owner's epoch equals this value. Protocols bump the processor
	// epoch at synchronization points to force one write trap per page
	// per interval, which is when twins are created.
	WriteEpoch uint64
	// Twin is the pristine copy made at the first write of an interval;
	// nil when no twin exists.
	Twin []byte
	// EverValid: the page has been valid here at some point (cold-start
	// fault detection).
	EverValid bool
}

// ProcMem is one processor's view of the whole shared space.
type ProcMem struct {
	space  *Space
	frames []Frame
	proc   int

	// twins recycles page-sized twin buffers between intervals: MakeTwin
	// fully overwrites the buffer, so only capacity survives a round trip.
	// A protocol that steals a twin (f.Twin = nil without DropTwin, as
	// TreadMarks does for lazy diffing) hands it back with RecycleTwin once
	// the diff is made.
	twins pool.Slices[byte]

	// diffEnc is MakeDiff's encoding scratch: the twin compare appends
	// runs here in one scan and the diff gets a copy at exact size, carved
	// from the space's region.
	diffEnc []byte

	// encs recycles the encodings of transient diffs between
	// MakeTransientDiff and RecycleDiff. A buffer is drawn from the
	// space's region at a page's worst-case encoded size, so the compare
	// never outgrows it, and is handed back as soon as its diff dies: the
	// list holds at most as many as were ever live at once.
	encs pool.Slices[byte]

	// Tracer emits twin-create and invalidate events stamped by Clock,
	// the owning processor's virtual time. The harness wires both when
	// tracing is enabled; Clock is nil otherwise, so it is read only
	// behind Tracer.On().
	Tracer trace.Emitter
	Clock  func() uint64
}

// NewProcMem builds the per-processor memory for the space. Pages homed at
// proc start valid with the initial image; everything else starts invalid
// (cold), as on a real network of workstations.
func NewProcMem(space *Space, proc int) *ProcMem {
	m := &ProcMem{space: space, frames: make([]Frame, space.Pages()), proc: proc}
	for pg := range m.frames {
		if space.InitHome(pg) == proc {
			f := &m.frames[pg]
			f.Data = m.freshCopy(pg)
			f.Valid = true
			f.EverValid = true
			f.WriteEpoch = 0
		}
	}
	return m
}

// freshCopy returns a new frame holding the page's initial contents. The
// buffer arrives dirty: the image overwrites it, and what the image does
// not reach is cleared.
func (m *ProcMem) freshCopy(page int) []byte {
	b := m.space.region.page(m.space.pageSize)
	n := 0
	if base, img := m.space.PageBase(page), m.space.InitImage(); base < len(img) {
		n = copy(b, img[base:])
	}
	clear(b[n:])
	return b
}

// Frame returns the frame for a page, materializing backing store lazily.
func (m *ProcMem) Frame(page int) *Frame {
	f := &m.frames[page]
	if f.Data == nil {
		f.Data = m.freshCopy(page)
	}
	return f
}

// Install makes data — a page-sized buffer the caller gives up, such as a
// page reply's snapshot — this processor's copy of the page. A page never
// touched here adopts the buffer as its frame, saving the initial-image
// copy Frame would make only to have it overwritten; otherwise data is
// copied into the frame. It reports whether it kept the buffer.
func (m *ProcMem) Install(page int, data []byte) (kept bool) {
	f := &m.frames[page]
	if f.Data == nil {
		f.Data = data
		return true
	}
	copy(f.Data, data)
	return false
}

// Peek returns the frame without materializing it (may have nil Data).
func (m *ProcMem) Peek(page int) *Frame { return &m.frames[page] }

// Pages returns the number of pages.
func (m *ProcMem) Pages() int { return len(m.frames) }

// Proc returns the owning processor id this memory was built for.
func (m *ProcMem) Proc() int { return m.proc }

// Read copies shared memory [a, a+len(dst)) into dst. The caller (the DSM
// context) is responsible for having made the pages valid first.
func (m *ProcMem) Read(a Addr, dst []byte) {
	ps := m.space.PageSize()
	for len(dst) > 0 {
		pg := m.space.PageOf(a)
		off := a - m.space.PageBase(pg)
		n := ps - off
		if n > len(dst) {
			n = len(dst)
		}
		copy(dst[:n], m.Frame(pg).Data[off:off+n])
		dst = dst[n:]
		a += n
	}
}

// Write copies src into shared memory at a. The caller is responsible for
// write permission (twin creation) on the pages first.
func (m *ProcMem) Write(a Addr, src []byte) {
	ps := m.space.PageSize()
	for len(src) > 0 {
		pg := m.space.PageOf(a)
		off := a - m.space.PageBase(pg)
		n := ps - off
		if n > len(src) {
			n = len(src)
		}
		copy(m.Frame(pg).Data[off:off+n], src[:n])
		src = src[n:]
		a += n
	}
}

// MakeTwin snapshots the page so later modifications can be diffed.
func (m *ProcMem) MakeTwin(page int) {
	f := m.Frame(page)
	if f.Twin == nil {
		f.Twin = m.space.PageFrom(&m.twins)
	}
	copy(f.Twin, f.Data)
	if m.Tracer.On() {
		m.Tracer.Page(m.Clock(), m.proc, trace.KindTwinCreate, page, 0, 0)
	}
}

// DropTwin discards the page's twin, recycling its buffer.
func (m *ProcMem) DropTwin(page int) {
	f := &m.frames[page]
	m.RecycleTwin(f.Twin)
	f.Twin = nil
}

// RecycleTwin takes back a twin buffer nobody reads any more: the frame's
// own (DropTwin) or one a protocol stole from it. Safe because diffs never
// alias the twin (MakeDiff copies run data) and the next MakeTwin fully
// overwrites whatever it pops.
func (m *ProcMem) RecycleTwin(twin []byte) { m.twins.Put(twin) }

// MakeDiff compares the page's current contents against twin — the frame's
// own or one stolen from it — and returns the diff, or nil if the page is
// unchanged (see the package-level MakeDiff). The diff is kept: its
// encoding is copied out of the scratch into the space's region, where it
// lives until the run ends (on the heap, for a space without one).
func (m *ProcMem) MakeDiff(page int, twin []byte, wordBytes int) *Diff {
	enc, runs := appendRuns(m.diffEnc[:0], twin, m.Frame(page).Data, wordBytes)
	m.diffEnc = enc
	if runs == 0 {
		return nil
	}
	return &Diff{Page: page, ID: nextDiffID(), enc: m.space.region.keep(enc), runs: runs}
}

// MakeTransientDiff is MakeDiff for a diff that dies inside the protocol —
// merged, discarded or shipped once — and that its maker hands back with
// RecycleDiff after its last reader. The diff encodes into a recycled
// buffer instead of getting a copy of its own.
//
// It inlines, so a caller that does not keep the diff keeps it on its
// stack: make and recycle then allocate nothing at all, which
// TestTransientDiffDoesNotAllocate holds it to.
func (m *ProcMem) MakeTransientDiff(page int, twin []byte, wordBytes int) *Diff {
	d := m.encodeTransient(page, twin, wordBytes)
	if d.runs == 0 {
		return nil
	}
	return &d
}

// encodeTransient runs the twin compare into a recycled buffer, or into
// one drawn from the space's region that holds the worst-case diff of a
// page. A clean page's buffer goes straight back to the free list.
func (m *ProcMem) encodeTransient(page int, twin []byte, wordBytes int) Diff {
	enc := m.encs.Get()
	if enc == nil {
		enc = m.space.region.page(maxEncodedBytes(m.space.pageSize, wordBytes))[:0]
	}
	enc, runs := appendRuns(enc, twin, m.Frame(page).Data, wordBytes)
	if runs == 0 {
		m.encs.Put(enc)
		return Diff{}
	}
	return Diff{Page: page, ID: nextDiffID(), enc: enc, runs: runs}
}

// RecycleDiff takes back the encoding of a diff made by MakeTransientDiff
// on this ProcMem, once nothing reads the diff any more, and empties the
// diff, so a second recycle of it does nothing. A nil or empty diff is
// ignored.
func (m *ProcMem) RecycleDiff(d *Diff) {
	if d == nil || d.enc == nil {
		return
	}
	if Poisoned {
		fill(d.enc[:cap(d.enc)], regionPoison)
	}
	m.encs.Put(d.enc)
	d.enc, d.runs = nil, 0
}

// Invalidate marks the page unreadable here.
func (m *ProcMem) Invalidate(page int) {
	m.frames[page].Valid = false
	if m.Tracer.On() {
		m.Tracer.Page(m.Clock(), m.proc, trace.KindInvalidate, page, 0, 0)
	}
}
