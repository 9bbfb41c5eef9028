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
// network, and the processors, whose bodies are coroutines (iter.Pull) of
// the engine's goroutine. Exactly one of {engine, some processor body}
// executes at any instant, so no locking is needed anywhere in the
// simulator or the protocols. An abandoned run must be Closed.
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
	// the engine core is single-threaded). pool.Of's Put zeroes a record
	// before keeping it, so nothing a message or context held can reach
	// its next user.
	msgs pool.Of[Msg]
	svcs pool.Of[Svc]

	// Deadlocked is set if the event queue drained while processors were
	// still blocked.
	Deadlocked bool

	bodies   []func(*Proc)
	launched bool

	// rel is the reliable-transport state, allocated by EnableFaults.
	rel *reliability

	// crashFns/restartFns are the protocols' failover hooks (crash.go),
	// run in engine context at crash and restart instants.
	crashFns   []func(node int)
	restartFns []func(node int) uint64
}

// New builds an engine for the given parameters. Run statistics are
// recorded into run (which must have one Proc entry per processor).
func New(p memsys.Params, run *stats.Run) *Engine {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid params: %v", err))
	}
	e := &Engine{
		Params: p,
		Net:    network.NewMesh(p),
		Run:    run,
		bodies: make([]func(*Proc), p.NumProcs),
	}
	for i := 0; i < p.NumProcs; i++ {
		pr := &Proc{
			ID:     i,
			Eng:    e,
			Stats:  &run.Procs[i],
			Cache:  memsys.NewCache(p.CacheBytes, p.CacheLineBytes),
			TLB:    memsys.NewTLB(p.TLBEntries),
			MemBus: memsys.NewBus(p.MemSetupCycles, p.MemPerWordCycles),
			IOBus:  memsys.NewBus(p.IOBusSetupCycles, p.IOBusPerWordCycles),
		}
		e.Procs = append(e.Procs, pr)
	}
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
	e.rel = &reliability{pairs: make([][]pair, len(e.Procs))}
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

// step resumes processor p: grants it a horizon, switches into its body
// until it yields, and reschedules it if it merely paused.
func (e *Engine) step(p *Proc) {
	if p.done {
		return
	}
	p.horizon = e.events.peek()
	if _, running := p.next(); !running {
		p.done = true // the body returned
		e.finished++
	} else if !p.blocked {
		e.scheduleStep(p.Clock, p) // reached its horizon; a blocked one waits for a Wake
	}
}

// closed is the panic that unwinds a parked body when its engine is closed
// (not runtime.Goexit: iter.Pull carries that into the engine's goroutine).
type closed struct{}

// unwound is deferred at the root of p's coroutine: it swallows closed and
// re-raises any other panic with the processor, its clock and the body's
// stack, which is lost once iter.Pull re-panics on the engine's goroutine.
func (p *Proc) unwound() {
	if r := recover(); r != nil && r != any(closed{}) {
		panic(fmt.Sprintf("sim: processor %d panicked at cycle %d: %v\n%s", p.ID, p.Clock, r, debug.Stack()))
	}
}

// Close unwinds every processor body that has not returned and releases its
// coroutine. runUntil calls it whenever a run ends; the owner of a paused
// run it will not continue must. Idempotent; a closed engine stays stopped.
func (e *Engine) Close() {
	for _, p := range e.Procs {
		if p.stop != nil {
			p.done = true
			p.stop()
		}
	}
}

// launch creates every processor's coroutine and seeds the event queue
// with their cycle-0 resume events. A run is launched once: a second
// Start or StartUntil is a caller's bug (a paused run goes on with
// ContinueUntil or Finish), and relaunching would run every body again.
func (e *Engine) launch() {
	if e.launched {
		panic("sim: engine started twice; continue a paused run with ContinueUntil or Finish")
	}
	e.launched = true
	for i, body := range e.bodies {
		if body == nil {
			panic(fmt.Sprintf("sim: processor %d has no body", i))
		}
		p := e.Procs[i]
		//dsmvet:allow singlethread the engine's coroutine hand-off: next/yield switch goroutines directly, so still only one runs
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.unwound()
			body(p)
		})
		e.scheduleStep(0, p)
	}
}

// runUntil dispatches events until the run completes (returns false) or
// the next pending event is at or beyond horizon (returns true: the run
// is paused with every processor stack live and can be continued).
// Pausing happens only between dispatches — no processor body is
// mid-resume — so a paused engine is exactly the state a cold run
// reaches after the same event prefix. Every other way out — finished,
// deadlocked, a body's panic passing through — closes the engine.
func (e *Engine) runUntil(horizon Time) (paused bool) {
	defer func() {
		if !paused {
			e.Close()
		}
	}()
	for e.finished < len(e.Procs) {
		if e.events.Len() == 0 {
			e.Deadlocked = true
			return false
		}
		if horizon != Forever && e.events.peek() >= horizon {
			return true
		}
		ev := e.events.pop()
		e.now = ev.at
		switch {
		case ev.proc != nil:
			e.step(ev.proc)
		case ev.m == nil:
			ev.fn()
		case ev.m.op == opDeliver:
			e.deliver(ev.m, ev.h)
		default:
			e.transportEvent(ev.m, ev.h)
		}
	}
	return false
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
	e.runUntil(Forever)
	return e.finalize()
}

// StartUntil launches the run and dispatches events up to (not
// including) the given virtual-time horizon, then pauses. It returns
// true while the run has more to do; continue with ContinueUntil or
// Finish. Statistics read while paused are exactly those a fresh run
// stopped at the same horizon would show — the event sequence is
// deterministic and the pause point is a pure function of the horizon.
func (e *Engine) StartUntil(horizon Time) bool {
	e.launch()
	return e.runUntil(horizon)
}

// ContinueUntil resumes a paused run up to a further horizon — a warm
// start: no replay from cycle zero, the processor stacks never stopped
// being live.
func (e *Engine) ContinueUntil(horizon Time) bool {
	return e.runUntil(horizon)
}

// Finish resumes a paused run to completion and returns the parallel
// execution time.
func (e *Engine) Finish() Time {
	e.runUntil(Forever)
	return e.finalize()
}
