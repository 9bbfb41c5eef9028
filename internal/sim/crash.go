package sim

// Node crash and network partition support: the state-destroying tier of
// fault injection (docs/ROBUSTNESS.md). The fault schedule names crash
// and partition windows by cycle; the engine turns them into events and
// outage checks on the message path:
//
//   - While a node is down (or a partition separates two nodes), every
//     remote transmission between them is lost — bypassing even the
//     fault.DefaultMaxAttempts no-drop floor, because a dead link is a
//     physical fact, not adversarial loss. Liveness survives: every outage window is
//     finite (fault.ParseSpec validation), retransmission timers keep
//     firing, and the floor resumes once the path heals.
//   - At the crash instant the engine runs the protocols' OnCrash hooks,
//     which scrub the node's volatile protocol state and atomically
//     rebuild the managed-lock portion from the replication log
//     (internal/recover). Scrub and rebuild are one step because a local
//     send never crosses the transport (msg.go): a crashed node can still
//     talk to itself, so its manager state must never be observably
//     half-dead.
//   - At the restart instant the OnRestart hooks report the failover
//     sweep's cost, which is charged to the Recovery category and
//     recorded as FailoverCycles.
//
// The crashed node's application computation is not aborted: the model is
// that execution state is checkpointed and restored (the determinism
// argument in docs/ROBUSTNESS.md), so a crash destroys exactly the state
// that is re-fetchable, replicated, or journaled — never results.

import (
	"aecdsm/internal/fault"
	"aecdsm/internal/trace"
)

// OnCrash registers a protocol hook that runs, in engine context, at every
// crash instant. The hook must scrub the node's volatile state and rebuild
// its manager state in one step; it must not block or send.
func (e *Engine) OnCrash(fn func(node int)) { e.crashFns = append(e.crashFns, fn) }

// OnRestart registers a protocol hook that runs at every restart instant
// and returns the failover sweep's cost in cycles, charged to Recovery on
// the restarted node.
func (e *Engine) OnRestart(fn func(node int) uint64) { e.restartFns = append(e.restartFns, fn) }

// scheduleOutages turns the fault schedule's crash windows into engine
// events. Crashes naming nodes outside the machine are ignored.
func (e *Engine) scheduleOutages(cfg fault.Config) {
	for _, cr := range cfg.Crashes {
		if cr.Node < 0 || cr.Node >= len(e.Procs) {
			continue
		}
		cr := cr
		e.schedule(cr.At, func() { e.crashNode(cr) })
		e.schedule(cr.At+cr.Down, func() { e.restartNode(cr) })
	}
}

// crashNode is the crash instant: count it, announce it, and let the
// protocols scrub and rebuild the node's state.
func (e *Engine) crashNode(cr fault.Crash) {
	p := e.Procs[cr.Node]
	p.Stats.NodeCrashes++
	e.Tracer.Event(e.now, cr.Node, trace.KindNodeCrash, int64(cr.Down), 0)
	for _, fn := range e.crashFns {
		fn(cr.Node)
	}
}

// restartNode is the restart instant: the protocols report their failover
// sweep cost, which occupies the node's service window and lands in the
// Recovery category.
func (e *Engine) restartNode(cr fault.Crash) {
	p := e.Procs[cr.Node]
	var cycles uint64
	for _, fn := range e.restartFns {
		cycles += fn(cr.Node)
	}
	p.Stats.FailoverCycles += cycles
	if cycles > 0 {
		start := e.now
		if p.svcBusyUntil > start {
			start = p.svcBusyUntil
		}
		p.svcBusyUntil = start + cycles
		e.chargeRecovery(p, cycles)
	}
	e.Tracer.Event(e.now, cr.Node, trace.KindNodeRestart, int64(cycles), 0)
}
