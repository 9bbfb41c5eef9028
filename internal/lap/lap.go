// Package lap implements Lock Acquirer Prediction (§2 of the AEC paper):
// predicting the next acquirer of a lock at release time from three
// low-level techniques — the waiting queue, the virtual queue (acquire
// notices), and lock transfer affinity — combined into an update set of
// bounded size Ns.
//
// The package is protocol-agnostic: AEC feeds it lock-manager events and
// reads update sets back; it also keeps the per-technique success-rate
// bookkeeping behind Table 3 of the paper.
package lap

import (
	"cmp"
	"slices"

	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/trace"
)

// DefaultAffinityFactor is the paper's threshold: a processor belongs to
// the affinity set when its transfer count is at least 60% greater than
// the releaser's average affinity for other processors. The paper's
// authors call the value "admittedly arbitrary" and plan a threshold
// study; this reproduction does not vary it.
const DefaultAffinityFactor = 1.6

// Predictor tracks one lock variable at its manager.
type Predictor struct {
	nprocs int
	ns     int

	// queue is the lock's waiting queue under the configured grant
	// discipline (internal/lockpolicy). The default is the FIFO policy,
	// whose order and costs are byte-identical to the historical
	// hardwired []int queue; SetPolicy swaps the discipline at attach
	// time, before any requester can be waiting.
	queue lockpolicy.Queue
	// virtQ is the virtual queue built from acquire notices.
	virtQ []int
	// aff[from*nprocs+to] counts ownership transfers from -> to.
	aff []uint32

	// Outstanding prediction, recorded when the lock was granted to the
	// current holder and evaluated when it next transfers. pendFull is
	// published — the grant message, the journal record, the manager's
	// image and the affinity policy's oracle all read it — so every
	// grant makes it a fresh slice and nothing writes it in place. The
	// per-technique predictions are read only here and are rewritten in
	// place at every grant.
	pending      bool
	pendHolder   int
	pendFull     []int
	pendWaitQ    int // -1 if the waiting queue offered no candidate
	pendWaitAff  []int
	pendWaitVirt []int
	note         []byte // reused encoding of pendFull for lap-predict

	// Scratch rewritten at every update-set computation: the set under
	// construction, the affinity set, and step 4's remaining candidates.
	us, affSet, rest []int

	Stats Stats

	// Tracer emits lap-notice, lap-predict and lap-hit/lap-miss events
	// for this lock. The hosting protocol wires Lock (the lock id), Mgr
	// (the managing processor, stamped as the event's Proc) and Clock
	// (the manager-side time source).
	Tracer trace.Emitter
	Lock   int
	Mgr    int
	Clock  func() uint64
}

func (p *Predictor) now() uint64 {
	if p.Clock == nil {
		return 0
	}
	return p.Clock()
}

// Stats aggregates LAP accuracy for one lock (Table 3).
type Stats struct {
	// Acquires counts all grants of the lock.
	Acquires uint64
	// SelfTransfers counts grants where the acquirer was the previous
	// holder (no prediction needed).
	SelfTransfers uint64
	// Evaluated counts grants to a different processor for which a
	// prediction had been recorded.
	Evaluated uint64
	// Hits per technique combination.
	HitFull, HitWaitQ, HitWaitAff, HitWaitVirt uint64
}

// New builds a predictor for one lock.
func New(nprocs, ns int) *Predictor {
	if ns < 1 {
		ns = 1
	}
	p := &Predictor{
		nprocs: nprocs,
		ns:     ns,
		aff:    make([]uint32, nprocs*nprocs),
	}
	p.queue = lockpolicy.New(lockpolicy.FIFO, p)
	return p
}

// SetPolicy swaps the lock's grant discipline. It must be called before
// the first request reaches the manager (the hosting protocol does so at
// attach time); the predictor itself serves as the policy's oracle.
func (p *Predictor) SetPolicy(k lockpolicy.Kind) {
	p.queue = lockpolicy.New(k, p)
}

// Predicted implements lockpolicy.Oracle: the update set computed at
// the last grant, i.e. the processors the releaser's merged diffs were
// eagerly pushed to (their copies are warm). The hosting protocol sends
// this same slice with the grant; it must not be written.
func (p *Predictor) Predicted() []int { return p.pendFull }

// Enqueue appends a processor to the waiting queue (lock busy at request).
func (p *Predictor) Enqueue(proc int) {
	p.Tracer.Lock(p.now(), p.Mgr, trace.KindLockEnqueue, p.Lock, int64(proc), 0)
	p.queue.Enqueue(proc)
}

// PickNext asks the policy for the next grantee after releaser let go,
// removing it from the waiting queue; Proc is -1 when nobody waits. It
// traces the policy decision (lock-bypass, lease-renew) so the auditor
// and metrics can ride the event stream.
func (p *Predictor) PickNext(releaser int) lockpolicy.Pick {
	pk := p.queue.PickNext(releaser)
	if pk.Proc >= 0 {
		if pk.Bypassed > 0 {
			p.Tracer.Lock(p.now(), p.Mgr, trace.KindLockBypass, p.Lock, int64(pk.Proc), int64(pk.Bypassed))
		}
		if pk.Renewal {
			p.Tracer.Lock(p.now(), p.Mgr, trace.KindLeaseRenew, p.Lock, int64(pk.Proc), 0)
		}
	}
	return pk
}

// QueueLen returns the waiting queue length.
func (p *Predictor) QueueLen() int { return p.queue.Len() }

// RecoverReset discards the waiting queue and replaces it with a fresh
// one under the same policy. It is the first step of the crash-failover
// replay (internal/recover): the crashed manager's queue is gone, and the
// backup rebuilds it record by record with RecoverEnqueue/RecoverRemove.
// The predictor's own knowledge — virtual queue, affinity matrix, pending
// prediction, statistics — is NOT reset: prediction state is piggybacked
// on the replication stream continuously (docs/ROBUSTNESS.md), and
// resetting the statistics would corrupt the run's Table 3 accounting.
func (p *Predictor) RecoverReset() {
	p.queue = lockpolicy.New(p.queue.Kind(), p)
}

// RecoverEnqueue replays one logged enqueue without re-tracing it: the
// lock-enqueue event already fired when the request arrived live, and the
// trace-riding auditor models the queue from those events, so a replay
// emission would double-count the waiter.
func (p *Predictor) RecoverEnqueue(proc int) { p.queue.Enqueue(proc) }

// RecoverRemove replays one logged queue grant: the recorded grantee is
// removed with PickNext's exact bookkeeping (lockpolicy.Queue.Remove)
// instead of re-running the policy choice, whose oracle inputs may have
// moved on since the historical decision. No bypass/renewal events are
// re-traced, for the same reason as RecoverEnqueue.
func (p *Predictor) RecoverRemove(proc int) bool { return p.queue.Remove(proc) }

// RequestElems is the manager's list-processing element count for one
// acquire request under the active policy (1 + queue length for the
// scanning disciplines, a constant for MCS).
func (p *Predictor) RequestElems() int { return p.queue.RequestElems() }

// GrantElems is the manager's extra list work to choose a grantee at
// release time (0 for the head-popping disciplines, so the default
// charges nothing extra).
func (p *Predictor) GrantElems() int { return p.queue.GrantElems() }

// Waiters appends the waiting processors in arrival order to dst.
func (p *Predictor) Waiters(dst []int) []int { return p.queue.Waiters(dst) }

// Notice records an acquire notice: proc intends to take the lock soon.
func (p *Predictor) Notice(proc int) {
	p.Tracer.Lock(p.now(), p.Mgr, trace.KindLAPNotice, p.Lock, int64(proc), 0)
	for _, q := range p.virtQ {
		if q == proc {
			return
		}
	}
	p.virtQ = append(p.virtQ, proc)
}

// Granted must be called every time the manager hands the lock to a
// processor. prev is the previous holder (the releaser), or -1 on the
// first grant. It evaluates the outstanding prediction, updates the
// affinity matrix, removes the grantee from the virtual queue, and records
// the new prediction made on behalf of the grantee.
func (p *Predictor) Granted(to, prev int) {
	p.Stats.Acquires++
	// Evaluate the prediction recorded at the previous grant. A transfer
	// back to the releaser itself needs no prediction (the data never
	// leaves the node), so it counts as a trivially correct event, as in
	// the paper's success-rate accounting.
	if p.pending && prev == p.pendHolder {
		p.Stats.Evaluated++
		if p.Tracer.On() {
			kind := trace.KindLAPMiss
			if to == prev || slices.Contains(p.pendFull, to) {
				kind = trace.KindLAPHit
			}
			p.Tracer.Lock(p.now(), p.Mgr, kind, p.Lock, int64(to), int64(prev))
		}
		if to == prev {
			p.Stats.SelfTransfers++
			p.Stats.HitFull++
			p.Stats.HitWaitQ++
			p.Stats.HitWaitAff++
			p.Stats.HitWaitVirt++
		} else {
			if slices.Contains(p.pendFull, to) {
				p.Stats.HitFull++
			}
			if p.pendWaitQ == to {
				p.Stats.HitWaitQ++
			}
			if p.pendWaitQ == to || slices.Contains(p.pendWaitAff, to) {
				p.Stats.HitWaitAff++
			}
			if p.pendWaitQ == to || slices.Contains(p.pendWaitVirt, to) {
				p.Stats.HitWaitVirt++
			}
		}
	}
	// Update transfer affinity.
	if prev >= 0 && prev != to {
		p.aff[prev*p.nprocs+to]++
	}
	p.removeNotice(to)
	// Record the prediction for the new holder's eventual release. The
	// update set is computed here, once per grant, and published.
	p.pending = true
	p.pendHolder = to
	p.pendFull = p.UpdateSet(to)
	p.pendWaitQ = p.queue.PeekNext(to)
	p.pendWaitAff = p.appendWaitAff(p.pendWaitAff[:0], to)
	p.pendWaitVirt = p.appendWaitVirt(p.pendWaitVirt[:0])
	if p.Tracer.On() {
		p.note = trace.AppendIntSet(p.note[:0], p.pendFull)
		p.Tracer.LockNote(p.now(), p.Mgr, trace.KindLAPPredict, p.Lock, int64(to), string(p.note))
	}
}

func (p *Predictor) removeNotice(proc int) {
	for i, q := range p.virtQ {
		if q == proc {
			p.virtQ = append(p.virtQ[:i], p.virtQ[i+1:]...)
			return
		}
	}
}

// AffinitySet returns the processors whose affinity with holder (for this
// lock) is at least DefaultAffinityFactor times the holder's average
// affinity for other processors, ordered by descending affinity then
// ascending id. An empty history yields an empty set.
func (p *Predictor) AffinitySet(holder int) []int {
	return append([]int(nil), p.affinitySet(holder)...)
}

// affinitySet computes AffinitySet into the predictor's scratch; the
// result is valid until the next computation.
func (p *Predictor) affinitySet(holder int) []int {
	row := p.aff[holder*p.nprocs : (holder+1)*p.nprocs]
	var sum uint64
	for q, v := range row {
		if q != holder {
			sum += uint64(v)
		}
	}
	set := p.affSet[:0]
	if sum > 0 {
		avg := float64(sum) / float64(p.nprocs-1)
		thresh := DefaultAffinityFactor * avg
		for q, v := range row {
			if q != holder && v > 0 && float64(v) >= thresh {
				set = append(set, q)
			}
		}
		sortByAffinity(set, row)
	}
	p.affSet = set
	return set
}

// UpdateSet computes the full LAP update set for the holder, following the
// paper's four-step algorithm (§2.2):
//  1. non-empty waiting queue -> its head, alone;
//  2. start from the affinity set;
//  3. fill from (virtual queue ∩ positive affinity);
//  4. fill from the virtual queue, then remaining positive-affinity procs.
//
// The result is a fresh slice; an empty set is nil.
func (p *Predictor) UpdateSet(holder int) []int {
	p.us = p.appendUpdateSet(p.us[:0], holder)
	return append([]int(nil), p.us...)
}

// appendUpdateSet appends the holder's update set to us, working in the
// predictor's scratch.
func (p *Predictor) appendUpdateSet(us []int, holder int) []int {
	if p.queue.Len() > 0 {
		// The policy's would-be pick, not blindly the arrival-order head:
		// the push must aim at the waiter that will actually win the lock.
		return append(us, p.queue.PeekNext(holder))
	}
	row := p.aff[holder*p.nprocs : (holder+1)*p.nprocs]
	add := func(q int) bool {
		if q == holder || slices.Contains(us, q) {
			return len(us) < p.ns
		}
		us = append(us, q)
		return len(us) < p.ns
	}
	// Step 2: affinity set (may by itself exceed Ns; the paper caps the
	// update set size at Ns, so we truncate by affinity order).
	for _, q := range p.affinitySet(holder) {
		if !add(q) {
			return us
		}
	}
	// Step 3: virtual queue members with positive affinity.
	for _, q := range p.virtQ {
		if q != holder && row[q] > 0 {
			if !add(q) {
				return us
			}
		}
	}
	// Step 4: virtual queue order, then positive affinity.
	for _, q := range p.virtQ {
		if !add(q) {
			return us
		}
	}
	rest := p.rest[:0]
	for q := 0; q < p.nprocs; q++ {
		if q != holder && row[q] > 0 {
			rest = append(rest, q)
		}
	}
	sortByAffinity(rest, row)
	p.rest = rest
	for _, q := range rest {
		if !add(q) {
			return us
		}
	}
	return us
}

// appendWaitAff appends waitQ+affinity in isolation: nothing when the
// queue is non-empty (its head is pendWaitQ), else the affinity set
// truncated to Ns.
func (p *Predictor) appendWaitAff(dst []int, holder int) []int {
	if p.queue.Len() > 0 {
		return dst
	}
	set := p.affinitySet(holder)
	return append(dst, set[:min(len(set), p.ns)]...)
}

// appendWaitVirt appends waitQ+virtualQ in isolation: nothing when the
// queue is non-empty, else the first Ns virtual-queue entries.
func (p *Predictor) appendWaitVirt(dst []int) []int {
	if p.queue.Len() > 0 {
		return dst
	}
	return append(dst, p.virtQ[:min(len(p.virtQ), p.ns)]...)
}

// Affinity returns the transfer count from -> to.
func (p *Predictor) Affinity(from, to int) uint32 {
	return p.aff[from*p.nprocs+to]
}

// sortByAffinity orders processor ids by descending affinity count,
// breaking ties by ascending id, deterministically.
func sortByAffinity(procs []int, row []uint32) {
	slices.SortFunc(procs, func(a, b int) int {
		if c := cmp.Compare(row[b], row[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
