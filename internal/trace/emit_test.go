package trace

import "testing"

// emitShapes is one call per Emitter method, on a kind an emission site
// uses it for: the event it must send, field by field, and the trace.Ev
// idiom that site spelled out when the guard was written by hand.
var emitShapes = []struct {
	name string
	emit func(Emitter)
	want Event
	old  func() Event
}{
	{"Event", func(e Emitter) { e.Event(100, 3, KindMsgSend, 7, 264) },
		Event{Cycle: 100, Proc: 3, Kind: KindMsgSend, Lock: -1, Page: -1, Arg: 7, Arg2: 264},
		func() Event {
			ev := Ev(100, 3, KindMsgSend)
			ev.Arg, ev.Arg2 = 7, 264
			return ev
		}},
	{"Lock", func(e Emitter) { e.Lock(200, 1, KindLockGrant, 5, -1, 9) },
		Event{Cycle: 200, Proc: 1, Kind: KindLockGrant, Lock: 5, Page: -1, Arg: -1, Arg2: 9},
		func() Event {
			ev := Ev(200, 1, KindLockGrant)
			ev.Lock = 5
			ev.Arg, ev.Arg2 = -1, 9
			return ev
		}},
	{"LockNote", func(e Emitter) { e.LockNote(300, 2, KindLAPPredict, 5, 4, "[3 7]") },
		Event{Cycle: 300, Proc: 2, Kind: KindLAPPredict, Lock: 5, Page: -1, Arg: 4, Note: "[3 7]"},
		func() Event {
			ev := Ev(300, 2, KindLAPPredict)
			ev.Lock = 5
			ev.Arg = 4
			ev.Note = "[3 7]"
			return ev
		}},
	{"Page", func(e Emitter) { e.Page(400, 6, KindPageFetch, 12, 2, 4096) },
		Event{Cycle: 400, Proc: 6, Kind: KindPageFetch, Lock: -1, Page: 12, Arg: 2, Arg2: 4096},
		func() Event {
			ev := Ev(400, 6, KindPageFetch)
			ev.Page = 12
			ev.Arg, ev.Arg2 = 2, 4096
			return ev
		}},
	{"Diff", func(e Emitter) { e.Diff(500, 0, KindDiffCreate, 12, 77, 120, 3) },
		Event{Cycle: 500, Proc: 0, Kind: KindDiffCreate, Lock: -1, Page: 12, Arg: 120, Arg2: 3, Ref: 77},
		func() Event {
			ev := Ev(500, 0, KindDiffCreate)
			ev.Page = 12
			ev.Ref = 77
			ev.Arg, ev.Arg2 = 120, 3
			return ev
		}},
}

// TestEmitterShapes: behind a sink, each method sends exactly one event
// with exactly the fields of its shape — Lock and Page -1 where it names
// none, Note and Ref empty unless it has them — which is the event the
// hand-written site sent.
func TestEmitterShapes(t *testing.T) {
	for _, s := range emitShapes {
		ring := NewRing(4)
		s.emit(To(ring))
		if got := ring.Events(); len(got) != 1 || got[0] != s.want {
			t.Errorf("%s sent %+v, want %+v", s.name, got, s.want)
		}
		if old := s.old(); old != s.want {
			t.Errorf("%s: the site it replaced sent %+v, want %+v", s.name, old, s.want)
		}
	}
}

// TestEmitterOff: the zero Emitter and To(nil) are tracing off — every
// method returns without reaching for a sink.
func TestEmitterOff(t *testing.T) {
	if (Emitter{}).On() || To(nil).On() || !To(NewRing(1)).On() {
		t.Error("On() must be false for the zero Emitter and To(nil), true behind a sink")
	}
	for _, s := range emitShapes {
		s.emit(Emitter{})
		s.emit(To(nil))
	}
}

// TestEmitterAllocatesNothing: off or on, an emission allocates nothing
// (the ring is warmed to capacity first, so it overwrites in place).
func TestEmitterAllocatesNothing(t *testing.T) {
	on := To(NewRing(8))
	for _, s := range emitShapes {
		for _, e := range []Emitter{{}, on} {
			if n := testing.AllocsPerRun(100, func() { s.emit(e) }); n != 0 {
				t.Errorf("%s (on=%v) allocates %v times per call", s.name, e.On(), n)
			}
		}
	}
}

// benchOff lives in a variable the compiler cannot see through, as the
// field an emission site reads does.
var benchOff Emitter

// BenchmarkEmitOff is the cost every emission site pays in an untraced
// run: one load and one inlined branch per call.
func BenchmarkEmitOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchOff.Lock(uint64(i), 1, KindLockGrant, 5, int64(i), 9)
	}
}

// BenchmarkEmitRing is the traced cost with the cheapest sink behind it:
// the out-of-line build and one interface call.
func BenchmarkEmitRing(b *testing.B) {
	e := To(NewRing(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Lock(uint64(i), 1, KindLockGrant, 5, int64(i), 9)
	}
}
