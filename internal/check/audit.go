package check

import (
	"fmt"
	"slices"

	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/trace"
)

// Auditor is a trace.Tracer that checks runtime protocol invariants over
// the event stream of one run. It models only what the events guarantee
// on every protocol, so the same auditor attaches unchanged to AEC,
// TreadMarks, Munin and the ideal protocol (which emits nothing and
// trivially passes).
//
// Invariants checked:
//
//  1. Mutual exclusion (single writer per lock interval): a lock is
//     granted only while free, and released only by its holder.
//  2. Lock-queue grant discipline, policy-aware (SetPolicy): under the
//     fifo and mcs policies a processor in the manager's waiting queue
//     (built from lock-enqueue events) is only granted the lock from the
//     head of that queue; under the reordering policies (affinity,
//     lease) any queued waiter may win, but each grant bumps the bypass
//     count of every waiter that arrived earlier, and no waiter's count
//     may ever exceed lockpolicy.MaxBypass — the starvation-freedom
//     contract the policies document. A grant to a processor that never
//     enqueued can race ahead of later enqueues (the grant message is in
//     flight while the manager keeps serving requests), so only queued
//     processors are held to the discipline.
//  3. Virtual-queue / prediction consistency: a predicted update set
//     parses (trace.ParseIntSet), never contains the holder it was
//     computed for, names only real processors, and lap-hit / lap-miss
//     verdicts agree with the most recently recorded prediction for the
//     lock.
//  4. Twin/diff lifecycle legality: a diff is only created by a
//     processor with an outstanding twin of the page, which the creation
//     consumes (TreadMarks banks twins in interval records and diffs
//     them lazily, so several twins of one page can be outstanding).
//     Creations flagged saved-twin (AEC's speculative outside diffs,
//     event Arg2 bit 1) still require a twin but do not consume it.
//  5. No diff applied twice: within one apply episode (a maximal
//     consecutive run of diff-apply events at a processor — any other
//     event at that processor closes the episode), the same diff
//     identity is never applied twice.
//  6. Barrier phasing: a processor departs its n-th barrier only after
//     every processor has arrived at it.
//
// The model is dense: per-lock and per-processor tables indexed by id
// (a lock, twin or diff event naming a negative id is itself a
// violation), grown the first time an id appears. Once they have grown
// to a run's shape, auditing allocates nothing.
type Auditor struct {
	nprocs     int
	policy     lockpolicy.Kind
	violations []string

	locks   []lockState // by lock id, grown when a lock is first seen
	procs   []procState // by processor id, grown the same way
	arrives []int
	departs []int
}

// lockState is the auditor's model of one lock.
type lockState struct {
	holder  int          // the holding processor, lockFree or lockUnseen
	queue   []queueEntry // modeled manager waiting queue
	predict []int        // last predicted update set
}

// A lock no grant or release has named yet is unseen: a release of it is
// out of scope (the stream may have started mid-tenure), while a second
// release of a lock an earlier release freed is a violation.
const (
	lockFree   = -1
	lockUnseen = -2
)

// procState is the auditor's model of one processor.
type procState struct {
	twins   []int    // by page: outstanding twins
	applied []uint64 // diff refs applied in the open apply episode
}

// maxViolations caps the report; a broken protocol can violate thousands
// of times and the first few are what matter.
const maxViolations = 20

// queueEntry is one modeled waiter: who, and how many later arrivals
// have been granted past it so far.
type queueEntry struct {
	proc   int
	bypass int
}

// NewAuditor builds an auditor for a run with nprocs processors. The
// modeled grant discipline defaults to FIFO; SetPolicy selects another.
func NewAuditor(nprocs int) *Auditor {
	return &Auditor{
		nprocs:  nprocs,
		policy:  lockpolicy.FIFO,
		procs:   make([]procState, nprocs),
		arrives: make([]int, nprocs),
		departs: make([]int, nprocs),
	}
}

// SetPolicy tells the auditor which grant discipline the run's lock
// managers are configured with, switching invariant 2 between the strict
// FIFO rule (fifo, mcs) and the bounded-bypass rule (affinity, lease).
func (a *Auditor) SetPolicy(k lockpolicy.Kind) { a.policy = k }

// Violations returns the recorded invariant violations, oldest first.
func (a *Auditor) Violations() []string {
	return append([]string(nil), a.violations...)
}

func (a *Auditor) failf(format string, args ...any) {
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// Trace implements trace.Tracer.
func (a *Auditor) Trace(ev trace.Event) { a.TraceEvent(&ev) }

// TraceEvent audits ev in place (see trace.Emitter).
func (a *Auditor) TraceEvent(ev *trace.Event) {
	// Any non-apply event at a processor ends its apply episode: protocols
	// may legitimately re-apply an inherited diff across separate grants,
	// but between those applies the processor always observes other
	// events (message delivery at the very least).
	if ev.Kind != trace.KindDiffApply && ev.Proc >= 0 && ev.Proc < len(a.procs) {
		a.procs[ev.Proc].applied = a.procs[ev.Proc].applied[:0]
	}
	switch ev.Kind {
	case trace.KindLockEnqueue, trace.KindLockGrant, trace.KindLockRelease,
		trace.KindLAPPredict, trace.KindLAPHit, trace.KindLAPMiss:
		if ev.Lock < 0 {
			a.failf("t%d: %s event names lock %d", ev.Cycle, ev.Kind, ev.Lock)
			return
		}
		for len(a.locks) <= ev.Lock {
			a.locks = append(a.locks, lockState{holder: lockUnseen})
		}
		a.traceLock(ev, &a.locks[ev.Lock])

	case trace.KindTwinCreate, trace.KindDiffCreate, trace.KindDiffApply:
		if ev.Proc < 0 || ev.Proc >= a.nprocs || ev.Page < 0 {
			a.failf("t%d: %s event names proc %d, page %d", ev.Cycle, ev.Kind, ev.Proc, ev.Page)
			return
		}
		a.tracePage(ev, &a.procs[ev.Proc])

	case trace.KindBarrierArrive:
		if ev.Proc >= 0 && ev.Proc < a.nprocs {
			a.arrives[ev.Proc]++
		}

	case trace.KindBarrierDepart:
		if ev.Proc >= 0 && ev.Proc < a.nprocs {
			a.departs[ev.Proc]++
			n := a.departs[ev.Proc]
			for q := 0; q < a.nprocs; q++ {
				if a.arrives[q] < n {
					a.failf("t%d: proc %d departed barrier %d before proc %d arrived (%d arrivals)",
						ev.Cycle, ev.Proc, n, q, a.arrives[q])
				}
			}
		}
	}
}

// traceLock audits one lock or LAP event against the lock's model
// (invariants 1-3).
func (a *Auditor) traceLock(ev *trace.Event, l *lockState) {
	switch ev.Kind {
	case trace.KindLockEnqueue:
		l.queue = append(l.queue, queueEntry{proc: int(ev.Arg)})

	case trace.KindLockGrant:
		if l.holder >= 0 {
			a.failf("t%d: lock %d granted to proc %d while held by proc %d",
				ev.Cycle, ev.Lock, ev.Proc, l.holder)
		}
		l.holder = ev.Proc
		a.auditGrantOrder(ev, l)

	case trace.KindLockRelease:
		if l.holder != lockUnseen && l.holder != ev.Proc {
			a.failf("t%d: lock %d released by proc %d, holder is %d",
				ev.Cycle, ev.Lock, ev.Proc, l.holder)
		}
		l.holder = lockFree

	case trace.KindLAPPredict:
		set, err := trace.ParseIntSet(l.predict[:0], ev.Note)
		l.predict = set
		if err != nil {
			a.failf("t%d: lock %d lap-predict: %v", ev.Cycle, ev.Lock, err)
		}
		holder := int(ev.Arg)
		for _, q := range set {
			if q == holder {
				a.failf("t%d: lock %d update set %v contains its own holder proc %d",
					ev.Cycle, ev.Lock, set, holder)
			}
			if q < 0 || q >= a.nprocs {
				a.failf("t%d: lock %d update set %v names unknown proc %d",
					ev.Cycle, ev.Lock, set, q)
			}
		}

	case trace.KindLAPHit:
		to, prev := int(ev.Arg), int(ev.Arg2)
		if to != prev && !slices.Contains(l.predict, to) {
			a.failf("t%d: lock %d lap-hit for proc %d but prediction was %v (prev holder %d)",
				ev.Cycle, ev.Lock, to, l.predict, prev)
		}

	case trace.KindLAPMiss:
		to, prev := int(ev.Arg), int(ev.Arg2)
		if to == prev || slices.Contains(l.predict, to) {
			a.failf("t%d: lock %d lap-miss for proc %d but prediction %v covers it (prev holder %d)",
				ev.Cycle, ev.Lock, to, l.predict, prev)
		}
	}
}

// tracePage audits one twin or diff event against its processor's model
// (invariants 4 and 5).
func (a *Auditor) tracePage(ev *trace.Event, p *procState) {
	switch ev.Kind {
	case trace.KindTwinCreate:
		for len(p.twins) <= ev.Page {
			p.twins = append(p.twins, 0)
		}
		p.twins[ev.Page]++

	case trace.KindDiffCreate:
		if ev.Page >= len(p.twins) || p.twins[ev.Page] <= 0 {
			a.failf("t%d: proc %d created a diff of page %d without an outstanding twin",
				ev.Cycle, ev.Proc, ev.Page)
		} else if ev.Arg2&2 == 0 {
			// Arg2 bit 1 marks a saved-twin creation (AEC's speculative
			// outside diffs): the diff still requires a twin, but the twin
			// survives for the page's canonical diff later.
			p.twins[ev.Page]--
		}

	case trace.KindDiffApply:
		if ev.Ref != 0 {
			// A linear scan: on the fuzz seeds the longest episode is 96
			// refs at 16 processors and 361 at 64 (TreadMarks; the means
			// are 11 and 46), and the scan is 1 % of a 64-processor
			// fuzzdsm profile.
			if slices.Contains(p.applied, ev.Ref) {
				a.failf("t%d: proc %d applied diff #%d (page %d) twice in one episode",
					ev.Cycle, ev.Proc, ev.Ref, ev.Page)
			} else {
				p.applied = append(p.applied, ev.Ref)
			}
		}
	}
}

// auditGrantOrder enforces invariant 2 on one grant event: strict
// head-of-queue order for fifo/mcs, the MaxBypass starvation bound for
// the reordering policies.
func (a *Auditor) auditGrantOrder(ev *trace.Event, l *lockState) {
	q := l.queue
	i := -1
	for j, e := range q {
		if e.proc == ev.Proc {
			i = j
			break
		}
	}
	if i < 0 {
		return // never enqueued: the grant raced the queue, out of scope
	}
	switch a.policy {
	case lockpolicy.FIFO, lockpolicy.MCS:
		if i != 0 {
			a.failf("t%d: lock %d granted to queued proc %d ahead of queue head proc %d under %s (queue %v)",
				ev.Cycle, ev.Lock, ev.Proc, q[0].proc, a.policy, queueProcs(q))
		}
	default: // affinity, lease: any waiter may win, within the bypass bound
		for j := 0; j < i; j++ {
			q[j].bypass++
			if q[j].bypass > lockpolicy.MaxBypass {
				a.failf("t%d: lock %d waiter proc %d bypassed %d times under %s, bound is %d (queue %v)",
					ev.Cycle, ev.Lock, q[j].proc, q[j].bypass, a.policy,
					lockpolicy.MaxBypass, queueProcs(q))
			}
		}
	}
	l.queue = append(q[:i], q[i+1:]...)
}

// queueProcs flattens a modeled queue to its processor ids for messages.
func queueProcs(q []queueEntry) []int {
	out := make([]int, len(q))
	for i, e := range q {
		out[i] = e.proc
	}
	return out
}
