package trace

// Ring is a fixed-capacity in-memory event sink: once full, new events
// overwrite the oldest. It is the cheapest always-on sink — useful in
// tests and for post-mortem inspection of the tail of a run.
type Ring struct {
	buf   []Event
	total uint64
}

// NewRing builds a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) { r.TraceEvent(&ev) }

// TraceEvent reads ev in place (see Emitter).
func (r *Ring) TraceEvent(ev *Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, *ev)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = *ev
	}
	r.total++
}

// Total returns the number of events ever traced (including overwritten).
func (r *Ring) Total() uint64 { return r.total }

// Len returns the number of events currently held.
func (r *Ring) Len() int { return len(r.buf) }

// Events returns the retained events oldest-first. The slice is freshly
// allocated; the ring keeps accepting events afterwards.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.total > uint64(cap(r.buf)) {
		// Wrapped: the oldest entry sits at the next write position.
		start := int(r.total % uint64(cap(r.buf)))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
		return out
	}
	return append(out, r.buf...)
}

// Reset discards all retained events and the running total.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.total = 0
}
