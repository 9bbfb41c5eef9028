package pool

import "testing"

// record has one field of each kind a recycled object can leak through:
// a pointer, a slice, a func and scalars.
type record struct {
	next *record
	buf  []byte
	fn   func() int
	n    int
	ok   bool
}

func (r *record) isZero() bool {
	return r.next == nil && r.buf == nil && r.fn == nil && r.n == 0 && !r.ok
}

// TestOfPutZeroes: whatever a record held when it was Put, nothing of it
// is left — on the record the caller still points at, and on the record
// the next Get returns, which is that same one (LIFO).
func TestOfPutZeroes(t *testing.T) {
	var p Of[record]
	r := p.Get()
	if !r.isZero() {
		t.Fatalf("fresh record not zero: %+v", *r)
	}
	*r = record{next: &record{}, buf: []byte("payload"), fn: func() int { return 7 }, n: 3, ok: true}
	p.Put(r)
	if !r.isZero() {
		t.Fatalf("Put left state behind: %+v", *r)
	}
	if got := p.Get(); got != r {
		t.Fatal("Get after Put should return the record just Put")
	} else if !got.isZero() {
		t.Fatalf("recycled record not zero: %+v", *got)
	}
}

// TestOfLIFOAndCounts: Made counts allocations, Idle the records waiting;
// records come back most recently Put first, and a drained pool allocates.
func TestOfLIFOAndCounts(t *testing.T) {
	var p Of[record]
	check := func(made, idle int) {
		t.Helper()
		if p.Made() != made || p.Idle() != idle {
			t.Fatalf("made %d, idle %d; want %d, %d", p.Made(), p.Idle(), made, idle)
		}
	}
	check(0, 0)
	a, b := p.Get(), p.Get()
	check(2, 0)
	p.Put(a)
	p.Put(b)
	check(2, 2)
	if p.Get() != b || p.Get() != a {
		t.Fatal("records should come back most recently Put first")
	}
	check(2, 0)
	if c := p.Get(); c == a || c == b {
		t.Fatal("a drained pool must allocate, not hand out a live record")
	}
	check(3, 0)
}

// TestSlices: Put keeps capacity and truncates — a full-length slice goes
// in, length 0 comes out over the same backing array — ignores slices
// with nothing to keep, and an empty pool hands out nil.
func TestSlices(t *testing.T) {
	var p Slices[int]
	if s := p.Get(); s != nil {
		t.Fatalf("Get on an empty pool = %v, want nil", s)
	}
	p.Put(nil)
	p.Put([]int{})
	if s := p.Get(); s != nil {
		t.Fatalf("capacity-0 slices should not be kept, got %v (cap %d)", s, cap(s))
	}
	buf := make([]int, 5, 8)
	p.Put(buf)
	got := p.Get()
	if len(got) != 0 || cap(got) != 8 {
		t.Fatalf("recycled buffer has len %d cap %d, want 0 and 8", len(got), cap(got))
	}
	if got = append(got, 1); &got[0] != &buf[0] {
		t.Fatal("recycled buffer should reuse the backing array")
	}
	if s := p.Get(); s != nil {
		t.Fatalf("the buffer was handed out twice: %v", s)
	}
}

// TestWarmRoundTripAllocatesNothing: once a pool holds a record and its
// list has grown, Get/Put is allocation-free — the zero-alloc message
// path rests on this.
func TestWarmRoundTripAllocatesNothing(t *testing.T) {
	var recs Of[record]
	var bufs Slices[byte]
	recs.Put(recs.Get())
	bufs.Put(make([]byte, 64))
	n := testing.AllocsPerRun(100, func() {
		r := recs.Get()
		r.n = 1
		recs.Put(r)
		b := bufs.Get()
		bufs.Put(append(b, 1))
	})
	if n != 0 {
		t.Fatalf("warm Get/Put allocates %v objects per round trip, want 0", n)
	}
}
