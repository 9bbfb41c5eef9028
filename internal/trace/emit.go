package trace

// Emitter is what an emitting layer holds instead of a Tracer. The zero
// value is tracing off: every method is then one branch, builds nothing
// and sends nothing. Because the guard lives here, a site cannot build or
// send an event with tracing off, and a diff-lifecycle event cannot be
// built without its diff identity (Diff takes it as a parameter). What a
// type cannot carry — that tracing charges no simulated cycles — is
// checked on what runs: harness.TestTraceDoesNotPerturbCycles.
//
// Each method is a guard around one out-of-line send, so the guard inlines
// into its call site; `make lint` fails if one stops inlining.
//
// An Emitter on builds every event in the one Event its stream keeps (To
// makes one stream per machine, and every layer of the machine holds a
// copy of the same Emitter) and hands the sink its address: nothing copies
// the event on its way to the sink, nor on its way through Multi.
type Emitter struct{ s *stream }

// stream is one machine's tracing state: the sink, read in place, and the
// event every emission is built in.
type stream struct {
	sink inPlace
	ev   Event
}

// inPlace is a sink that reads an event where it was built: a TraceEvent
// method reads *ev during the call and keeps a copy of what it retains.
// Every sink of this package and check.Auditor is one; To adapts any other
// Tracer.
type inPlace interface {
	TraceEvent(ev *Event)
}

// byValue adapts a Tracer that implements only Trace.
type byValue struct{ t Tracer }

func (b byValue) TraceEvent(ev *Event) { b.t.Trace(*ev) }

// reader returns t as a sink that reads events in place.
func reader(t Tracer) inPlace {
	if s, ok := t.(inPlace); ok {
		return s
	}
	return byValue{t}
}

// To returns an Emitter feeding t; To(nil) is the zero Emitter.
func To(t Tracer) Emitter {
	if t == nil {
		return Emitter{}
	}
	return Emitter{&stream{sink: reader(t)}}
}

// On reports whether events are being consumed. Sites test it only where
// an argument is costly, or cannot be evaluated, with tracing off.
func (e Emitter) On() bool { return e.s != nil }

// Event emits an event that names neither a lock nor a page.
func (e Emitter) Event(cycle uint64, proc int, kind Kind, arg, arg2 int64) {
	if e.s != nil {
		e.send(cycle, proc, kind, -1, -1, 0, arg, arg2, "")
	}
}

// Lock emits an event about lock.
func (e Emitter) Lock(cycle uint64, proc int, kind Kind, lock int, arg, arg2 int64) {
	if e.s != nil {
		e.send(cycle, proc, kind, lock, -1, 0, arg, arg2, "")
	}
}

// LockNote is Lock with a human-readable annotation in place of Arg2.
func (e Emitter) LockNote(cycle uint64, proc int, kind Kind, lock int, arg int64, note string) {
	if e.s != nil {
		e.send(cycle, proc, kind, lock, -1, 0, arg, 0, note)
	}
}

// Page emits an event about page.
func (e Emitter) Page(cycle uint64, proc int, kind Kind, page int, arg, arg2 int64) {
	if e.s != nil {
		e.send(cycle, proc, kind, -1, page, 0, arg, arg2, "")
	}
}

// Diff emits a diff-lifecycle event (diff-create, diff-apply, diff-merge)
// about page; ref is the diff's identity (mem.Diff.ID), which the runtime
// auditor keys on.
func (e Emitter) Diff(cycle uint64, proc int, kind Kind, page int, ref uint64, arg, arg2 int64) {
	if e.s != nil {
		e.send(cycle, proc, kind, -1, page, ref, arg, arg2, "")
	}
}

// send is kept out of line: inlined (it costs exactly the budget) it would
// push every guard above over it.
//
//go:noinline
func (e Emitter) send(cycle uint64, proc int, kind Kind, lock, page int, ref uint64, arg, arg2 int64, note string) {
	// Field by field: a composite literal is built aside and then copied.
	ev := &e.s.ev
	ev.Cycle, ev.Proc, ev.Kind, ev.Lock, ev.Page = cycle, proc, kind, lock, page
	ev.Arg, ev.Arg2, ev.Note, ev.Ref = arg, arg2, note, ref
	e.s.sink.TraceEvent(ev)
}
