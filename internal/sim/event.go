// Package sim is the execution-driven simulation kernel: a discrete-event
// engine over virtual processor cycles, with each simulated processor
// running real application code on its own stack, as a runtime coroutine
// (iter.Pull) of the engine. It plays the role of MINT plus the back-end
// scheduler in the paper's methodology.
//
// One goroutine runs at any instant, and events are dispatched in (at, seq)
// order wherever that goroutine is. The event loop (Engine.dispatch) runs
// on the engine's goroutine or on the stack of the processor that holds
// control: a processor that reaches its horizon or blocks dispatches the
// deliveries, transport records and At functions ahead of its own resume
// itself, continues with no hand-off when its own resume comes up, and
// switches directly into the next processor when another's does — there is
// no channel and no trip through the Go scheduler, so no package state
// needs locking. A resumed processor gets a horizon (the timestamp of the
// next pending event) and executes until an operation would cross it. This
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
	// closure for it. A running processor's resume stays at the root of
	// the queue while its body runs (Engine.dispatch).
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
// does not depend on the heap's shape. A running processor's resume stays
// at the root while its body runs: every event the body schedules is at
// or after now with a later seq, so it goes below the root, and the
// horizon the body was granted is the earliest of the root's children
// (second). When the body parks, its resume is rewritten in place and
// sifted down (requeue) — what a pop and a push would leave.
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

// second returns the time of the earliest event after the root — the
// earliest of the root's children — or Forever when there is none.
func (q eventQueue) second() Time {
	t := Forever
	for i := 1; i <= arity && i < len(q); i++ {
		if q[i].at < t {
			t = q[i].at
		}
	}
	return t
}

// pop removes and returns the earliest pending event; the queue must be
// non-empty. The last leaf refills the root.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{} // drop payload references promptly
	h = h[:n]
	*q = h
	if n > 0 {
		h.down(last)
	}
	return top
}

// requeue gives the root event the key (at, seq) and sifts it down to its
// place; the queue must be non-empty.
func (q eventQueue) requeue(at Time, seq uint64) {
	ev := q[0]
	ev.at, ev.seq = at, seq
	q.down(ev)
}

// down puts ev in the root's place by sifting a hole down from the root.
func (q eventQueue) down(ev event) {
	n := len(q)
	i := 0
	for c := 1; c < n; c = arity*i + 1 {
		m := c // the earliest of i's children
		for j := c + 1; j < c+arity && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}

// stamp returns the sequence number of an event for cycle at. An event
// before now would run with the clock turned back; no causal schedule
// produces one, so it is a bug to stop at, not a timestamp to rewrite
// (Engine.At is the one entry point that documents a clamp, and clamps
// before it gets here).
func (e *Engine) stamp(at Time) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled for cycle %d, before now (cycle %d)", at, e.now))
	}
	e.seq++
	return e.seq
}

// enqueue stamps ev and queues it.
func (e *Engine) enqueue(ev event) {
	ev.seq = e.stamp(ev.at)
	e.events.push(ev)
}

func (e *Engine) schedule(at Time, fn func()) { e.enqueue(event{at: at, fn: fn}) }

// scheduleResume schedules a "resume processor p" event: a processor's
// first, and a blocked one's wake-up. The processor pointer rides in the
// event itself, so it costs no closure allocation. A processor that merely
// reached its horizon keeps its event (Proc.park).
func (e *Engine) scheduleResume(at Time, p *Proc) { e.enqueue(event{at: at, proc: p}) }

// scheduleDeliver schedules the message-delivery event for m at its
// arrival time. The message and handler ride in the event itself — no
// closure, no boxing.
func (e *Engine) scheduleDeliver(at Time, m *Msg, h Handler) {
	e.enqueue(event{at: at, m: m, h: h})
}
