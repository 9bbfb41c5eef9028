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

import "math/bits"

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

// The event queue is a three-level hierarchical timer wheel with an
// unsorted overflow pool, replacing the earlier container/heap binary
// heap whose Push/Pop boxed every event into an interface (one heap
// allocation per scheduled event — the top allocation site of whole-table
// runs). Level l buckets events by bits [8l, 8l+8) of their timestamp, so
// the wheel spans 2^24 cycles ahead of the cursor; the rare far-future
// timers (recovery timeouts, outage windows, Forever-adjacent sentinels)
// wait in the overflow pool and are swept in when the wheel drains.
//
// Pop order is exactly the old heap's (at, seq): level-0 slots hold a
// single timestamp each, and every append into a slot happens in
// monotonically increasing seq order — direct pushes because e.seq only
// grows, cascades because a cascade happens at the instant the cursor
// enters a block, before any direct push for that block can occur (the
// pop-order property test in event_test.go checks this against a
// reference heap oracle).
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelSpan   = Time(1) << (wheelBits * wheelLevels) // cursor + 2^24 covered
)

// wheelSlot is one bucket: a reusable FIFO of events. head avoids
// re-slicing on every pop so the backing array's capacity survives.
type wheelSlot struct {
	head int
	evs  []event
}

func (s *wheelSlot) empty() bool { return s.head == len(s.evs) }

func (s *wheelSlot) popFront() event {
	ev := s.evs[s.head]
	s.evs[s.head] = event{} // drop payload references promptly
	s.head++
	if s.head == len(s.evs) {
		s.evs = s.evs[:0]
		s.head = 0
	}
	return ev
}

// timerWheel is the engine's event queue. cur is the pop cursor: it
// advances only inside pop, and only to the timestamp being popped, so
// it never runs ahead of the engine's notion of "now". That invariant
// matters because peeks happen mid-dispatch — the engine grants each
// resumed processor the next pending event time as its horizon, and the
// processor then schedules sends *below* that horizon; if peeking
// advanced the cursor toward the horizon, those perfectly causal pushes
// would land in the cursor's past. peek is therefore read-only: it
// computes the exact minimum from the occupancy bitmaps and caches it
// (next/nextOK) until the next pop.
type timerWheel struct {
	cur    Time
	count  int
	next   Time // cached peek() result, valid while nextOK
	nextOK bool
	level  [wheelLevels][wheelSlots]wheelSlot
	occ    [wheelLevels][wheelSlots / 64]uint64 // occupancy bitmaps
	over   []event                              // beyond cursor + 2^24, unsorted
}

// Len returns the number of pending events.
func (w *timerWheel) Len() int { return w.count }

func (w *timerWheel) setOcc(l, slot int)   { w.occ[l][slot>>6] |= 1 << uint(slot&63) }
func (w *timerWheel) clearOcc(l, slot int) { w.occ[l][slot>>6] &^= 1 << uint(slot&63) }

// firstOcc returns the lowest occupied slot index at level l, or -1. The
// slots below the cursor's position are always empty, so the lowest set
// bit is the next slot the cursor reaches.
func (w *timerWheel) firstOcc(l int) int {
	for i, word := range w.occ[l] {
		if word != 0 {
			return i<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// push adds an event. at below the cursor cannot happen in a causal
// schedule (the cursor trails the engine's now, and Engine.At clamps);
// it is clamped defensively so a bug surfaces as a same-cycle event
// rather than queue corruption.
func (w *timerWheel) push(ev event) {
	if ev.at < w.cur {
		ev.at = w.cur
	}
	if w.nextOK && ev.at < w.next {
		w.next = ev.at
	}
	w.count++
	w.place(ev)
}

// place buckets ev by its distance from the cursor's aligned blocks. The
// subtraction form of every bound keeps Forever-adjacent timestamps from
// overflowing the comparisons.
func (w *timerWheel) place(ev event) {
	at := ev.at
	switch {
	case at-(w.cur&^Time(wheelMask)) < wheelSlots:
		w.append(0, int(at&wheelMask), ev)
	case at-(w.cur&^(Time(1)<<(2*wheelBits)-1)) < 1<<(2*wheelBits):
		w.append(1, int(at>>wheelBits&wheelMask), ev)
	case at-(w.cur&^(wheelSpan-1)) < wheelSpan:
		w.append(2, int(at>>(2*wheelBits)&wheelMask), ev)
	default:
		w.over = append(w.over, ev)
	}
}

func (w *timerWheel) append(l, slot int, ev event) {
	s := &w.level[l][slot]
	s.evs = append(s.evs, ev)
	w.setOcc(l, slot)
}

// settle advances the cursor to the first pending event, cascading
// higher-level slots and sweeping the overflow pool as blocks open, and
// returns the level-0 slot holding it (nil when the queue is empty).
// Only pop calls settle: the cursor must not move between pops, because
// events keep arriving for times between the last pop and the next one
// (see the type comment). Cascades only restructure — they move each
// event to the placement the new cursor prescribes, preserving
// (at, seq) order. The cost is amortized O(1) per event: each event
// moves down a level at most twice.
func (w *timerWheel) settle() *wheelSlot {
	for {
		if w.count == 0 {
			return nil
		}
		if s := w.firstOcc(0); s >= 0 {
			return &w.level[0][s]
		}
		if j := w.firstOcc(1); j >= 0 {
			// Enter level-1 block j: its events all land back in
			// level 0 (they are within 256 cycles of the new cursor).
			w.cur = w.cur&^(Time(1)<<(2*wheelBits)-1) | Time(j)<<wheelBits
			w.cascade(1, j)
			continue
		}
		if k := w.firstOcc(2); k >= 0 {
			w.cur = w.cur&^(wheelSpan-1) | Time(k)<<(2*wheelBits)
			w.cascade(2, k)
			continue
		}
		// Wheel empty: sweep the overflow pool into the 2^24 window
		// that starts at its earliest timestamp.
		min := Forever
		for _, ev := range w.over {
			if ev.at < min {
				min = ev.at
			}
		}
		w.cur = min &^ (wheelSpan - 1)
		kept := w.over[:0]
		for _, ev := range w.over {
			if ev.at-w.cur < wheelSpan {
				w.place(ev)
			} else {
				kept = append(kept, ev)
			}
		}
		for i := len(kept); i < len(w.over); i++ {
			w.over[i] = event{}
		}
		w.over = kept
	}
}

// cascade redistributes slot s of level l to lower levels under the
// already-advanced cursor.
func (w *timerWheel) cascade(l, slot int) {
	s := &w.level[l][slot]
	evs := s.evs[s.head:]
	for i := range evs {
		w.place(evs[i])
		evs[i] = event{}
	}
	s.evs = s.evs[:0]
	s.head = 0
	w.clearOcc(l, slot)
}

// peek returns the earliest pending event's time without removing it,
// or Forever when the queue is empty. It never moves the cursor or
// cascades; the scan result is cached until the next pop, and pushes
// keep the cache exact, so repeated peeks between pops are O(1).
func (w *timerWheel) peek() Time {
	if w.count == 0 {
		return Forever
	}
	if !w.nextOK {
		w.next = w.minPending()
		w.nextOK = true
	}
	return w.next
}

// minPending scans for the earliest pending timestamp without mutating
// the wheel. Level 0 holds only the cursor's own 256-cycle block, so
// its slots each hold a single timestamp and the first occupied slot is
// the minimum. A higher level's first occupied slot is the earliest
// block at that level and strictly precedes everything above it, but
// its events are seq-ordered, not time-ordered, so the slot is scanned;
// that happens at most once per pop and only while the levels below are
// empty, so it stays amortized O(1).
func (w *timerWheel) minPending() Time {
	if s := w.firstOcc(0); s >= 0 {
		sl := &w.level[0][s]
		return sl.evs[sl.head].at
	}
	for l := 1; l < wheelLevels; l++ {
		if j := w.firstOcc(l); j >= 0 {
			sl := &w.level[l][j]
			min := Forever
			for _, ev := range sl.evs[sl.head:] {
				if ev.at < min {
					min = ev.at
				}
			}
			return min
		}
	}
	min := Forever
	for _, ev := range w.over {
		if ev.at < min {
			min = ev.at
		}
	}
	return min
}

// pop removes and returns the earliest pending event; the queue must be
// non-empty.
func (w *timerWheel) pop() event {
	s := w.settle()
	ev := s.popFront()
	if s.empty() {
		w.clearOcc(0, int(ev.at&wheelMask))
	}
	w.cur = ev.at
	w.count--
	w.nextOK = false
	return ev
}

func (e *Engine) schedule(at Time, fn func()) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// scheduleStep schedules the hot-path "resume processor p" event. The
// processor pointer rides in the event itself, so the per-cycle reschedule
// of every running processor costs no closure allocation.
func (e *Engine) scheduleStep(at Time, p *Proc) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// scheduleDeliver schedules the message-delivery event for m at its
// arrival time. The message and handler ride in the event itself — no
// closure, no boxing.
func (e *Engine) scheduleDeliver(at Time, m *Msg, h Handler) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, m: m, h: h})
}

// nextEventTime peeks the earliest pending event time. It is called
// mid-dispatch — while the popped event is still being serviced — to
// grant the resumed processor its horizon, so it must not restructure
// the wheel (the processor will schedule events below the horizon).
func (e *Engine) nextEventTime() Time {
	return e.events.peek()
}
