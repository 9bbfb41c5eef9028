package sim

import (
	"fmt"
	"iter"
	"runtime/debug"

	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/network"
	"aecdsm/internal/pool"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Engine drives the simulation: it owns virtual time, the event queue, the
// network, and the processors, whose bodies are coroutines (iter.Pull)
// resumed by the engine's goroutine or by one another. Exactly one
// goroutine executes at any instant, so no locking is needed anywhere in
// the simulator or the protocols.
type Engine struct {
	Params memsys.Params
	Net    *network.Mesh
	Procs  []*Proc
	Run    *stats.Run

	// Tracer emits protocol events; the zero value is tracing off, one
	// branch per site. Emission never charges simulated cycles, so
	// tracing cannot perturb the run.
	Tracer trace.Emitter

	// Faults, when non-nil, injects deterministic message/node faults and
	// switches the message path onto the reliable transport (sequence
	// numbers, dedup, ack/retransmit — see reliable.go). Nil means the
	// exact pre-fault message path runs: zero perturbation. Set it with
	// EnableFaults before Start.
	Faults *fault.Injector

	now      Time
	seq      uint64
	events   eventQueue
	finished int

	// msgs and svcs recycle messages and service contexts (plain slices:
	// the engine core is single-threaded), across runs too (Renew).
	// pool.Of's Put zeroes a record before keeping it, so nothing a
	// message or context held can reach its next user.
	msgs pool.Of[Msg]
	svcs pool.Of[Svc]

	// Deadlocked is set if the event queue drained while processors were
	// still blocked.
	Deadlocked bool

	bodies   []func(*Proc)
	launched bool

	// marks and observe are the observer (Observe); nextMark indexes the
	// next mark to observe and markAt is its cycle (Forever past the last).
	marks    []Time
	observe  func(i int)
	nextMark int
	markAt   Time

	// inEvent is set while a delivery, transport record or At function
	// runs, on whichever stack dispatches it: a panic raised then is the
	// event's, not the body's of the processor dispatching it. named is
	// set once a panic has been given its source (Engine.source).
	inEvent, named bool

	// rel is the reliable-transport state: nil, or &transport once
	// EnableFaults has armed it. transport outlives the run, like the
	// pools: its pending-entry pool and its pair rows are kept.
	rel       *reliability
	transport reliability

	// crashFns/restartFns are the protocols' failover hooks (crash.go),
	// run in engine context at crash and restart instants.
	crashFns   []func(node int)
	restartFns []func(node int) uint64
}

// New builds an engine for the given parameters. Run statistics are
// recorded into run (which must have one Proc entry per processor).
func New(p memsys.Params, run *stats.Run) *Engine {
	e := new(Engine)
	e.Renew(p, run)
	return e
}

// Now returns current virtual time.
func (e *Engine) Now() Time { return e.now }

// EnableFaults arms deterministic fault injection for this run: builds
// the injector from the schedule, hands it to the mesh for link
// degradation, and switches every remote message onto the reliable
// transport. Must be called before Start.
func (e *Engine) EnableFaults(cfg fault.Config) {
	e.Faults = fault.New(cfg, len(e.Procs))
	e.Net.Faults = e.Faults
	e.rel = &e.transport
	e.rel.arm(len(e.Procs))
	e.scheduleOutages(cfg)
}

// At schedules fn to run at the given virtual time (or now, if at is in
// the past). Protocols use it for recovery timeouts; fn runs in engine
// context, so it may Wake processors but must not block.
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.schedule(at, fn)
}

// Spawn registers the application body for processor id. All bodies must
// be registered before Start.
func (e *Engine) Spawn(id int, body func(*Proc)) {
	e.bodies[id] = body
}

// closed is the panic that unwinds a parked body when its engine is closed
// (not runtime.Goexit: iter.Pull carries that into the resumer's goroutine).
type closed struct{}

// source names the origin of a panic r raised on p's stack (p nil: the
// engine goroutine's): an event being dispatched, or else p's body. It
// keeps the stack, which is lost once iter.Pull re-panics on the resumer's
// goroutine. A panic is named once: one already named (a processor's
// resumer sees it again), or one raised on the engine goroutine outside an
// event (the observer's), is returned unchanged.
func (e *Engine) source(r any, p *Proc) any {
	switch {
	case e.named:
		return r
	case e.inEvent:
		r = fmt.Sprintf("sim: event at cycle %d panicked: %v\n%s", e.now, r, debug.Stack())
	case p != nil:
		r = fmt.Sprintf("sim: processor %d panicked at cycle %d: %v\n%s", p.ID, p.Clock, r, debug.Stack())
	default:
		return r
	}
	e.named = true
	return r
}

// unwound is deferred at the root of p's coroutine: it swallows closed and
// re-raises any other panic, named (source).
func (p *Proc) unwound() {
	if r := recover(); r != nil && r != any(closed{}) {
		panic(p.Eng.source(r, p))
	}
}

// close unwinds every processor body that has not returned and releases
// its coroutine; run calls it however the run ends.
func (e *Engine) close() {
	for _, p := range e.Procs {
		p.stop()
	}
}

// launch creates every processor's coroutine and seeds the event queue
// with their cycle-0 resume events. A run is launched once: relaunching
// would run every body again.
func (e *Engine) launch() {
	if e.launched {
		panic("sim: engine started twice")
	}
	e.launched = true
	for i, body := range e.bodies {
		if body == nil {
			panic(fmt.Sprintf("sim: processor %d has no body", i))
		}
	}
	for i, body := range e.bodies {
		p := e.Procs[i]
		// The engine's coroutine hand-off: next and yield switch goroutines
		// directly, so still only one runs (an allowance in internal/lint).
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.unwound()
			body(p)
		})
		e.scheduleResume(0, p)
	}
}

// Observe sets the run's observer; call it before Start. The run calls
// fn(i) once for each of the ascending marks, in order: before it
// dispatches the first event at or after marks[i], after every event
// before it. Dispatch is the only thing that moves the machine, so fn sees
// exactly the state a run stopped at marks[i] would have. Marks the run
// never reaches are observed when it stops. fn must not schedule events.
func (e *Engine) Observe(marks []Time, fn func(i int)) {
	e.marks, e.observe = marks, fn
}

// mark returns marks[i], or Forever past the last mark.
func (e *Engine) mark(i int) Time {
	if i < len(e.marks) {
		return e.marks[i]
	}
	return Forever
}

// dispatch is the event loop, one function for every goroutine that holds
// control: the engine's (self nil) or that of self, a processor that has
// just parked or blocked. Either way it dispatches the root of the queue
// in (at, seq) order: a delivery, transport record or At function runs on
// the current stack, and another processor's resume switches into that
// processor (resume), which dispatches on its own stack when it parks. It
// returns true when self's own resume comes up, so self continues with no
// hand-off; false when control goes back to whoever resumed self — the next
// resume is a processor suspended beneath self on this chain of resumes,
// or the next thing is an observer mark or an empty queue, which are the
// engine goroutine's business. On the engine goroutine it returns once
// every body has returned, or with Deadlocked when the queue drains first.
func (e *Engine) dispatch(self *Proc) bool {
	for e.finished < len(e.Procs) {
		if len(e.events) == 0 {
			if self == nil {
				e.Deadlocked = true
			}
			return false
		}
		root := &e.events[0]
		if root.at >= e.markAt && e.nextMark < len(e.marks) {
			if self != nil {
				return false
			}
			e.observe(e.nextMark)
			e.nextMark++
			e.markAt = e.mark(e.nextMark)
			continue
		}
		e.now = root.at
		if p := root.proc; p != nil {
			switch {
			case p == self:
				p.horizon = e.events.second()
				return true
			case p.onChain:
				return false
			}
			e.resume(p)
			continue
		}
		ev := e.events.pop()
		e.inEvent = true
		switch {
		case ev.m == nil:
			ev.fn()
		case ev.m.op == opDeliver:
			e.deliver(ev.m, ev.h)
		default:
			e.transportEvent(ev.m, ev.h)
		}
		e.inEvent = false
	}
	return false
}

// resume switches into p, whose resume event is at the root, with the
// horizon of the event after it, and returns when control comes back: p
// parked or blocked and handed it down the chain, or p's body returned —
// its resume, still at the root, then leaves the queue.
func (e *Engine) resume(p *Proc) {
	p.horizon = e.events.second()
	p.onChain = true
	_, running := p.next()
	p.onChain = false
	if !running {
		e.events.pop()
		p.done = true
		e.finished++
	}
}

// run dispatches events until every body has returned or the queue drains
// with processors still blocked (Deadlocked), calling the observer at its
// marks, and observes the marks the run never reached. However the run
// ends — finished, deadlocked, a panic passing through — it closes the
// engine.
func (e *Engine) run() {
	defer func() {
		r := recover()
		e.close()
		if r != nil {
			panic(e.source(r, nil))
		}
	}()
	e.markAt = e.mark(0)
	e.dispatch(nil)
	for ; e.nextMark < len(e.marks); e.nextMark++ {
		e.observe(e.nextMark)
	}
}

// finalize records and returns the parallel execution time: the maximum
// processor clock.
func (e *Engine) finalize() Time {
	var max Time
	for _, p := range e.Procs {
		if p.Clock > max {
			max = p.Clock
		}
	}
	e.Run.Cycles = max
	return max
}

// Start launches all processor bodies and runs the event loop until
// every processor's body has returned (or deadlock). It returns the
// parallel execution time: the maximum processor clock.
func (e *Engine) Start() Time {
	e.launch()
	e.run()
	return e.finalize()
}
