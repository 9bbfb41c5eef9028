// Package sim is the execution-driven simulation kernel: a discrete-event
// engine over virtual processor cycles, with each simulated processor
// running real application code on its own stack, as a runtime coroutine
// (iter.Pull) of the engine. It plays the role of MINT plus the back-end
// scheduler in the paper's methodology.
//
// Engine and processor bodies alternate strictly: the engine switches
// directly into a body and the body switches directly back, with no
// channel and no trip through the Go scheduler, so at most one of them
// runs at any instant and no package state needs locking. The engine
// resumes the runnable processor event with the lowest timestamp and hands
// it a horizon (the timestamp of the next pending event); the processor
// executes until an operation would cross the horizon, then yields. This
// conservative windowing keeps the simulation causal and deterministic.
package sim

import "fmt"

// Time is virtual time in processor cycles (1 cycle = 10ns in the paper).
type Time = uint64

// Forever is a horizon meaning "no other event pending".
const Forever = ^Time(0)

// event is one pending engine action. Exactly one of proc, m and fn is
// set: proc marks the dominant "resume processor p" event, m a message
// delivery (with its handler h) or, by m.op, one of the reliable
// transport's records, and fn every other scheduled action.
// Carrying the two hot payloads unboxed in the event itself is what makes
// the schedule/send/deliver steady state allocation-free — there is no
// per-event closure and no interface boxing anywhere on the path.
type event struct {
	at  Time
	seq uint64
	// proc marks the "resume processor p" event without allocating a
	// closure for it (the event loop calls e.step(proc) directly).
	proc *Proc
	// m/h carry a message delivery without allocating a closure for it
	// (the event loop calls e.deliver(m, h) directly); m returns to the
	// engine's pool after the handler runs.
	m *Msg
	h Handler
	// fn carries every other scheduled action (protocol timeouts, outages).
	fn func()
}

// eventQueue is the engine's event queue: a 4-ary min-heap over one
// []event, ordered by (at, seq). Events are stored by value, so a push
// allocates nothing once the slice has grown to the run's high-water
// mark. seq is unique, which makes (at, seq) a total order: pop order
// does not depend on the heap's shape, and peek is a read of the root —
// the engine peeks mid-dispatch, to grant a resumed processor its
// horizon, and the processor then schedules events below that horizon.
// Arity 4 against 2: as many compares on the way down over half the
// levels, so half the moves, and half the way up on every push. bench
// could not tell the two apart; the microbenchmarks lean to 4
// (docs/PERFORMANCE.md, "Round five").
type eventQueue []event

const arity = 4

// before is the queue's order: time, then schedule order.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Len returns the number of pending events.
func (q eventQueue) Len() int { return len(q) }

// peek returns the earliest pending event's time without removing it,
// or Forever when the queue is empty.
func (q eventQueue) peek() Time {
	if len(q) == 0 {
		return Forever
	}
	return q[0].at
}

// push adds an event, sifting a hole up from the new leaf to its place.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest pending event; the queue must be
// non-empty. The last leaf refills the root by sifting a hole down.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{} // drop payload references promptly
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = arity*i + 1 {
		m := c // the earliest of i's children
		for j := c + 1; j < c+arity && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// enqueue stamps ev with the next sequence number and queues it. An event
// before now would run with the clock turned back; no causal schedule
// produces one, so it is a bug to stop at, not a timestamp to rewrite
// (Engine.At is the one entry point that documents a clamp, and clamps
// before it gets here).
func (e *Engine) enqueue(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled for cycle %d, before now (cycle %d)", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

func (e *Engine) schedule(at Time, fn func()) { e.enqueue(event{at: at, fn: fn}) }

// scheduleStep schedules the hot-path "resume processor p" event. The
// processor pointer rides in the event itself, so the per-cycle reschedule
// of every running processor costs no closure allocation.
func (e *Engine) scheduleStep(at Time, p *Proc) { e.enqueue(event{at: at, proc: p}) }

// scheduleDeliver schedules the message-delivery event for m at its
// arrival time. The message and handler ride in the event itself — no
// closure, no boxing.
func (e *Engine) scheduleDeliver(at Time, m *Msg, h Handler) {
	e.enqueue(event{at: at, m: m, h: h})
}
