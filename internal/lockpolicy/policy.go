// Package lockpolicy factors the lock managers' grant discipline out of
// the protocols into a pluggable policy interface (the ROADMAP's
// lock-manager lab; taxonomy per the Rodriguez & Osborn distributed-
// locking survey in PAPERS.md). A policy owns one lock's waiting queue at
// its manager and decides, at every release, which waiter is granted
// next and what the manager-side list-processing work costs.
//
// Four disciplines are implemented:
//
//   - fifo: the paper's baseline — strict arrival order, manager scans
//     the queue on every request. The default ("" parses to it) and
//     byte-identical to the seed's hardwired grant path.
//   - mcs: an MCS-style distributed queue lock. Grant order is still
//     arrival order (the MCS queue is FIFO), but the manager's work per
//     request is O(1) — a tail-pointer swap — instead of a queue scan,
//     which is the discipline's whole point (Mellor-Crummey & Scott).
//   - affinity: prefer the waiter whose diffs are already warm — first
//     anyone the LAP predictor pushed the releaser's update set to, then
//     the waiter with the highest transfer affinity to the releaser.
//     Bypass is bounded (see MaxBypass) so no waiter starves.
//   - lease: migrate the critical section to the data, per Hendler et
//     al.'s lease-based replicated TM (PAPERS.md): the current
//     leaseholder's re-requests win over other waiters for up to
//     LeaseLength consecutive grants, keeping the lock (and the pages
//     behind it) on one node while it is hot. Same bypass bound.
//
// Every policy preserves mutual exclusion and lock-disciplined program
// semantics — grant ORDER is the only degree of freedom — which is why
// the differential checker demands bit-identical barrier-phase checksums
// across all four (docs/LOCKING.md, docs/TESTING.md).
package lockpolicy

import "fmt"

// Kind names a grant discipline.
type Kind string

// The four disciplines. The empty string parses to FIFO so the zero
// memsys.Params reproduces the seed byte-for-byte.
const (
	FIFO     Kind = "fifo"
	MCS      Kind = "mcs"
	Affinity Kind = "affinity"
	Lease    Kind = "lease"
)

// Kinds returns all disciplines in their canonical (documentation and
// table) order.
func Kinds() []Kind { return []Kind{FIFO, MCS, Affinity, Lease} }

// Parse resolves a policy name from configuration; "" is the FIFO
// default.
func Parse(s string) (Kind, error) {
	switch Kind(s) {
	case "", FIFO:
		return FIFO, nil
	case MCS:
		return MCS, nil
	case Affinity:
		return Affinity, nil
	case Lease:
		return Lease, nil
	}
	return "", fmt.Errorf("lockpolicy: unknown policy %q (want fifo, mcs, affinity or lease)", s)
}

// MaxBypass bounds reordering for the affinity and lease policies: once
// MaxBypass later-arriving waiters have been granted past a waiter, it
// becomes forced and the next grant must serve forced waiters in arrival
// order. The trace-riding auditor enforces exactly this bound
// (internal/check), so the constant is the contract, not a tunable.
const MaxBypass = 4

// LeaseLength is the maximum number of consecutive grants the lease
// policy awards to the current leaseholder while other processors wait.
const LeaseLength = 4

// Oracle exposes the host predictor's knowledge to a policy: the lock's
// transfer-affinity matrix and the update set most recently pushed (whose
// members hold warm diffs). The lap.Predictor implements it.
type Oracle interface {
	// Affinity returns the ownership-transfer count from -> to.
	Affinity(from, to int) uint32
	// Predicted returns the last predicted update set for the lock: the
	// processors the releaser's merged diffs were eagerly pushed to.
	Predicted() []int
}

// Pick is the outcome of one grant decision.
type Pick struct {
	// Proc is the chosen waiter, or -1 when the queue is empty.
	Proc int
	// Bypassed counts the earlier-arrived waiters passed over by this
	// pick (always 0 for fifo and mcs).
	Bypassed int
	// Renewal marks a lease self-renewal: the leaseholder was re-granted
	// ahead of other waiters.
	Renewal bool
}

// Queue is one lock's waiting queue under a grant discipline. It is
// manager-side state: purely bookkeeping, deterministic, and it never
// charges simulated cycles itself — the hosting protocol charges
// RequestElems/GrantElems through its service context.
type Queue interface {
	// Kind identifies the discipline.
	Kind() Kind
	// Enqueue appends a requester (the lock was busy at request time).
	Enqueue(proc int)
	// PickNext removes and returns the next grantee given the releasing
	// processor, updating bypass bookkeeping. Proc is -1 when empty.
	PickNext(releaser int) Pick
	// PeekNext returns the waiter PickNext would choose, without
	// mutating any state (-1 when empty). The LAP predictor uses it so
	// update-set pushes aim at the waiter that will actually win.
	PeekNext(releaser int) int
	// Remove deletes the named waiter as if PickNext had chosen it,
	// updating the same bookkeeping (bypass counts of earlier arrivals,
	// lease tenure). It exists for the crash-failover replay
	// (internal/recover): the replication log records WHICH waiter each
	// historical grant served, so the replay must reproduce that exact
	// removal rather than re-run the policy's choice against
	// possibly-changed oracle state. Returns false when proc is not
	// queued.
	Remove(proc int) bool
	// Len returns the number of waiters.
	Len() int
	// Waiters appends the waiters in arrival order to dst.
	Waiters(dst []int) []int
	// RequestElems is the manager's list-processing element count for
	// one acquire request (charged via Svc.ChargeList).
	RequestElems() int
	// GrantElems is the manager's extra list work to choose a grantee at
	// release time (0 for the disciplines that just pop the head).
	GrantElems() int
}

// New builds a queue for one lock under the given discipline. The oracle
// may be nil, in which case the affinity policy degenerates to FIFO
// order (no knowledge to prefer anyone by).
func New(k Kind, o Oracle) Queue {
	switch k {
	case MCS:
		return &mcsQueue{fifoQueue: fifoQueue{}}
	case Affinity:
		return &affinityQueue{reorderQueue: reorderQueue{}, oracle: o}
	case Lease:
		return &leaseQueue{reorderQueue: reorderQueue{}}
	}
	return &fifoQueue{}
}

// fifoQueue is the paper's baseline: strict arrival order, queue-scan
// request cost. Its semantics and costs are byte-identical to the seed's
// hardwired []int waiting queue.
type fifoQueue struct {
	q []int
}

func (f *fifoQueue) Kind() Kind        { return FIFO }
func (f *fifoQueue) Enqueue(proc int)  { f.q = append(f.q, proc) }
func (f *fifoQueue) Len() int          { return len(f.q) }
func (f *fifoQueue) RequestElems() int { return 1 + len(f.q) }
func (f *fifoQueue) GrantElems() int   { return 0 }

func (f *fifoQueue) PickNext(releaser int) Pick {
	if len(f.q) == 0 {
		return Pick{Proc: -1}
	}
	// Copy down rather than reslice, so Enqueue reuses the backing
	// array instead of regrowing it.
	h := f.q[0]
	f.q = f.q[:copy(f.q, f.q[1:])]
	return Pick{Proc: h}
}

func (f *fifoQueue) PeekNext(releaser int) int {
	if len(f.q) == 0 {
		return -1
	}
	return f.q[0]
}

func (f *fifoQueue) Waiters(dst []int) []int { return append(dst, f.q...) }

func (f *fifoQueue) Remove(proc int) bool {
	for i, w := range f.q {
		if w == proc {
			f.q = append(f.q[:i], f.q[i+1:]...)
			return true
		}
	}
	return false
}

// mcsQueue grants in the same order as fifo — the MCS queue is FIFO by
// construction — but models the discipline's O(1) manager work: a
// requester swaps itself onto the queue tail and later spins locally, so
// the manager never scans the queue. Two list elements per request (the
// tail swap and the predecessor link) regardless of queue length.
type mcsQueue struct {
	fifoQueue
}

func (m *mcsQueue) Kind() Kind        { return MCS }
func (m *mcsQueue) RequestElems() int { return 2 }

// reorderQueue is the shared machinery of the reordering disciplines:
// arrival-order storage plus the bounded-bypass bookkeeping. bypass[i]
// counts how many later-arrived waiters were granted past waiter i.
type reorderQueue struct {
	q      []int
	bypass []int
}

func (r *reorderQueue) Enqueue(proc int) {
	r.q = append(r.q, proc)
	r.bypass = append(r.bypass, 0)
}

func (r *reorderQueue) Len() int                { return len(r.q) }
func (r *reorderQueue) RequestElems() int       { return 1 + len(r.q) }
func (r *reorderQueue) Waiters(dst []int) []int { return append(dst, r.q...) }

// forced returns the arrival index of the earliest waiter at the bypass
// bound, or -1 when nobody is forced.
func (r *reorderQueue) forced() int {
	for i, b := range r.bypass {
		if b >= MaxBypass {
			return i
		}
	}
	return -1
}

// take removes the waiter at arrival index i and bumps the bypass count
// of everyone who arrived earlier, returning the pick.
func (r *reorderQueue) take(i int) Pick {
	p := Pick{Proc: r.q[i], Bypassed: i}
	for j := 0; j < i; j++ {
		r.bypass[j]++
	}
	r.q = append(r.q[:i], r.q[i+1:]...)
	r.bypass = append(r.bypass[:i], r.bypass[i+1:]...)
	return p
}

// Remove replays a historical grant: the same take(i) as PickNext, so
// the bypass counters of earlier arrivals advance exactly as they did
// live.
func (r *reorderQueue) Remove(proc int) bool {
	for i, w := range r.q {
		if w == proc {
			r.take(i)
			return true
		}
	}
	return false
}

// affinityQueue prefers waiters whose diffs are warm: first the members
// of the last pushed update set (they already hold the releaser's merged
// diffs), then the highest transfer affinity with the releaser, arrival
// order breaking ties. Bypass is bounded by MaxBypass.
type affinityQueue struct {
	reorderQueue
	oracle Oracle
}

func (a *affinityQueue) Kind() Kind { return Affinity }

// GrantElems models the selection scan over the waiting queue.
func (a *affinityQueue) GrantElems() int { return len(a.q) }

// choose returns the arrival index PickNext would take, without mutating.
func (a *affinityQueue) choose(releaser int) int {
	if len(a.q) == 0 {
		return -1
	}
	if i := a.forced(); i >= 0 {
		return i
	}
	if releaser < 0 || a.oracle == nil {
		return 0
	}
	// Warm waiters: members of the last pushed update set, arrival order.
	warm := a.oracle.Predicted()
	for i, w := range a.q {
		for _, p := range warm {
			if p == w {
				return i
			}
		}
	}
	// Highest transfer affinity with the releaser; arrival order on ties
	// (including the all-zero history case, which degenerates to FIFO).
	best, bestAff := 0, a.oracle.Affinity(releaser, a.q[0])
	for i := 1; i < len(a.q); i++ {
		if aff := a.oracle.Affinity(releaser, a.q[i]); aff > bestAff {
			best, bestAff = i, aff
		}
	}
	return best
}

func (a *affinityQueue) PickNext(releaser int) Pick {
	i := a.choose(releaser)
	if i < 0 {
		return Pick{Proc: -1}
	}
	return a.take(i)
}

func (a *affinityQueue) PeekNext(releaser int) int {
	if i := a.choose(releaser); i >= 0 {
		return a.q[i]
	}
	return -1
}

// leaseQueue keeps the critical section where the data is: the waiter
// that last held the lock (the leaseholder) wins over other waiters for
// up to LeaseLength consecutive grants, so a re-acquiring processor
// reuses its own warm pages and diffs instead of shipping them. When the
// leaseholder is absent from the queue — or its lease is spent — the
// arrival-order head takes over the lease. Bypass is bounded by
// MaxBypass, exactly as for affinity.
type leaseQueue struct {
	reorderQueue
	holder int // current leaseholder, -1 before the first grant
	uses   int // consecutive grants awarded to holder
	primed bool
}

func (l *leaseQueue) Kind() Kind { return Lease }

// GrantElems models the leaseholder lookup: one element.
func (l *leaseQueue) GrantElems() int { return 1 }

// choose returns (arrival index, renewal) without mutating.
func (l *leaseQueue) choose() (int, bool) {
	if len(l.q) == 0 {
		return -1, false
	}
	if i := l.forced(); i >= 0 {
		return i, false
	}
	if l.primed && l.uses < LeaseLength {
		for i, w := range l.q {
			if w == l.holder {
				return i, i > 0
			}
		}
	}
	return 0, false
}

func (l *leaseQueue) PickNext(releaser int) Pick {
	i, renewal := l.choose()
	if i < 0 {
		return Pick{Proc: -1}
	}
	p := l.take(i)
	p.Renewal = renewal
	if l.primed && p.Proc == l.holder {
		l.uses++
	} else {
		l.holder, l.uses, l.primed = p.Proc, 1, true
	}
	return p
}

func (l *leaseQueue) PeekNext(releaser int) int {
	if i, _ := l.choose(); i >= 0 {
		return l.q[i]
	}
	return -1
}

// Remove replays a historical grant with the full lease bookkeeping of
// PickNext: tenure extends when the removed waiter is the current
// leaseholder, otherwise the lease migrates to it.
func (l *leaseQueue) Remove(proc int) bool {
	if !l.reorderQueue.Remove(proc) {
		return false
	}
	if l.primed && proc == l.holder {
		l.uses++
	} else {
		l.holder, l.uses, l.primed = proc, 1, true
	}
	return true
}
