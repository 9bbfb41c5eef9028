package sim

import (
	"fmt"

	"aecdsm/internal/memsys"
	"aecdsm/internal/stats"
)

// Proc is one simulated workstation node: a computation processor with its
// own clock, cache, TLB, memory bus and I/O bus, plus the coroutine
// plumbing that lets its application body interleave with the engine.
type Proc struct {
	ID  int
	Eng *Engine

	// Clock is the processor's local virtual time.
	Clock Time

	// Stats accumulates this processor's measurements.
	Stats *stats.Proc

	// Memory system components.
	Cache  *memsys.Cache
	TLB    *memsys.TLB
	MemBus *memsys.Bus
	IOBus  *memsys.Bus

	// Coroutine hand-off (iter.Pull, see Engine.launch): whoever holds
	// control — the engine's goroutine or another processor — sets horizon
	// and calls next to switch into the body (Engine.resume); the body
	// calls yield to switch back when control must go down the chain
	// (Engine.dispatch). stop unwinds it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	horizon Time
	blocked bool
	done    bool
	// onChain is set while the processor is inside a next call: running, or
	// suspended in resume beneath the processors it resumed. When its
	// resume comes up, those yield down to it rather than resume it.
	onChain bool

	// wakeAt is the time a blocked processor should resume at, set by
	// Wake before the resume event fires.
	wakeAt Time

	// stolen accumulates interrupt service cycles that preempted the
	// processor while it was running; they are folded into the clock at
	// the next advance and charged to IPC.
	stolen uint64

	// stolenRec accumulates fault-recovery cycles (acks, retransmits,
	// duplicate suppression) that preempted the running processor; folded
	// into the clock at the next advance and charged to Recovery. Always
	// zero when fault injection is off.
	stolenRec uint64

	// svcBusyUntil serializes back-to-back message service on this node.
	svcBusyUntil Time
}

// Advance charges cycles to the given category and moves the clock. If the
// clock crosses the engine horizon the processor yields so pending events
// can run; the operation is considered to take effect at its start time.
func (p *Proc) Advance(cycles uint64, cat stats.Category) {
	if p.stolen > 0 {
		p.Clock += p.stolen
		p.Stats.Breakdown.Add(stats.IPC, p.stolen)
		p.stolen = 0
	}
	if p.stolenRec > 0 {
		p.Clock += p.stolenRec
		p.Stats.Breakdown.Add(stats.Recovery, p.stolenRec)
		p.stolenRec = 0
	}
	p.Clock += cycles
	p.Stats.Breakdown.Add(cat, cycles)
	if p.Clock >= p.horizon {
		p.park()
	}
}

// Checkpoint yields to the engine if the horizon has been reached without
// charging any cycles. Call it inside long polling loops.
func (p *Proc) Checkpoint() { p.Advance(0, stats.Busy) }

// park is where a body that reached its horizon or blocked gives up
// control. Its resume event, at the root of the queue while it ran, moves
// to the processor's clock — or leaves the queue, for a blocked processor,
// until a Wake — and the processor dispatches the events ahead of it on
// its own stack. It returns when its resume comes up again: at once, if
// dispatch reaches it, or else once it has yielded and been resumed. A
// closed engine unwinds it instead.
func (p *Proc) park() {
	e := p.Eng
	if p.blocked {
		e.events.pop()
	} else {
		e.events.requeue(p.Clock, e.stamp(p.Clock))
	}
	if !e.dispatch(p) && !p.yield(struct{}{}) {
		panic(closed{})
	}
}

// Block parks the processor until another entity calls Wake. The stall
// between the current clock and the wake time is charged to cat. It
// returns the number of cycles stalled.
func (p *Proc) Block(cat stats.Category) uint64 {
	p.wakeAt = p.Clock
	p.blocked = true
	p.park()
	var stalled uint64
	if p.wakeAt > p.Clock {
		stalled = p.wakeAt - p.Clock
		p.Stats.Breakdown.Add(cat, stalled)
		p.Clock = p.wakeAt
	}
	return stalled
}

// WaitUntil blocks the processor until cond() holds, charging stall time to
// cat. cond is evaluated between engine events; every state change that can
// satisfy it must Wake this processor. Returns total stalled cycles.
func (p *Proc) WaitUntil(cond func() bool, cat stats.Category) uint64 {
	var stalled uint64
	for !cond() {
		stalled += p.Block(cat)
	}
	return stalled
}

// Wake schedules a blocked processor to resume at the given time (or at its
// current clock if later). Calling Wake on a processor that is not blocked
// is a no-op: the processor will observe the changed state at its next
// condition check. The processor is marked runnable immediately so a second
// Wake does not schedule a duplicate resume.
func (p *Proc) Wake(at Time) {
	if p.done || !p.blocked {
		return
	}
	if at < p.Clock {
		at = p.Clock
	}
	p.blocked = false // consumed; prevents double resume events
	p.wakeAt = at
	p.Eng.scheduleResume(at, p)
}

// Blocked reports whether the processor is parked waiting for a Wake.
func (p *Proc) Blocked() bool { return p.blocked }

// Steal records interrupt service cycles preempting a running processor.
func (p *Proc) Steal(cycles uint64) { p.stolen += cycles }

// StealRecovery records fault-recovery cycles (ack sends, retransmits,
// duplicate suppression) preempting a running processor; they are charged
// to the Recovery category at the next advance.
func (p *Proc) StealRecovery(cycles uint64) { p.stolenRec += cycles }

func (p *Proc) String() string { return fmt.Sprintf("P%d@%d", p.ID, p.Clock) }
