// Package recover implements the primary-backup replication layer that
// makes the lock managers crash-tolerant (docs/ROBUSTNESS.md).
//
// Every state-changing lock-manager action — a waiter enqueued, a grant
// issued, a release absorbed, a chain reset at a barrier — is appended to
// a per-lock replication log BEFORE the action takes effect at the
// manager, and a copy of the record is shipped to the backup
// (memsys.BackupOf) of the node that took it over the reliable transport.
// When the manager crashes, the backup owns a prefix-complete log:
// replaying it deterministically reconstructs the wait queue (with the
// grant policy's bypass counters and lease tenure intact, via
// lockpolicy.Queue.Remove), the holder, and the consistency metadata the
// next acquirer needs (update set, cumulative page list).
//
// Modeling note — why the in-process log is authoritative. The simulator
// is single-threaded and manager handlers run to completion, so "append
// before effect" is trivially atomic here; the message to the
// backup models the COST of synchronous replication (wire bytes, backup
// service time), not its content. This is the standard simulation fiction:
// a real implementation would block the manager until the backup acked the
// record, and the reliable transport's retransmission machinery already
// charges what that costs under faults. Keeping the log content
// in-process makes failover exact even when a log-shipping message is in
// flight at the instant of the crash — the alternative (reconstructing
// from possibly-truncated shipped state) would break the bit-identical
// results contract that internal/check enforces.
//
// Records log EFFECTS, not inputs: a release record carries the resulting
// update set and cumulative page list rather than the arguments that
// produced them, so replay never re-runs protocol logic whose other inputs
// (barrier phase, affinity oracle) may have moved on since the original
// decision. Grant records likewise name WHICH waiter was served, and
// replay removes exactly that waiter instead of re-asking the policy.
package recover

import (
	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
	"aecdsm/internal/trace"
)

// Op is the kind of a replicated lock-manager action.
type Op uint8

const (
	// OpEnqueue records a waiter added to the lock's wait queue.
	OpEnqueue Op = iota
	// OpGrant records the lock granted to a processor; FromQueue says
	// whether the grantee was removed from the wait queue (false for an
	// immediate grant to a requester that never waited).
	OpGrant
	// OpRelease records the lock released, with the resulting
	// last-release metadata.
	OpRelease
	// OpReset records the lock's chain state — the update set and the
	// cumulative page list its last release left behind — discarded, as
	// AEC's barrier does; tenure, last releaser and counts stand.
	OpReset
)

// String names the operation for traces and test failures.
func (o Op) String() string {
	switch o {
	case OpEnqueue:
		return "enqueue"
	case OpGrant:
		return "grant"
	case OpRelease:
		return "release"
	case OpReset:
		return "reset"
	}
	return "op?"
}

// Record is one replicated lock-manager action. The slices are snapshots
// owned by the log (callers must copy mutable state in, never alias it).
type Record struct {
	// Lock is the lock id the record belongs to.
	Lock int
	// Op is the action kind.
	Op Op
	// Proc is the waiter (enqueue), grantee (grant) or releaser (release).
	Proc int
	// FromQueue marks a grant that consumed a queued waiter.
	FromQueue bool
	// Count is the grantee's acquire count (grant) or the releaser's
	// count at release.
	Count int
	// US is the resulting update set (grant: the set handed to the
	// grantee; release: the set left behind for the next acquirer).
	US []int
	// Pages is the resulting cumulative page list at release.
	Pages []int
}

// Bytes is the modeled wire size of the record when shipped to the
// backup: a fixed header (lock id, op, proc, count, flags) plus one word
// per list element — the same flat encoding the protocols use for their
// own list-carrying messages.
func (r *Record) Bytes() int {
	return 16 + 8*(len(r.US)+len(r.Pages))
}

// Image is the non-queue lock state a log replay reconstructs. Holder and
// LastReleaser are -1 when absent, matching the protocols' conventions.
type Image struct {
	Held         bool
	Holder       int
	Count        int   // holder's acquire count while held
	US           []int // holder's update set while held
	LastReleaser int
	LastCount    int
	LastUS       []int
	CumPages     []int
}

// Queue is the replay surface a wait queue must expose. lap.Predictor
// implements it; so does any direct lockpolicy.Queue wrapper.
type Queue interface {
	// RecoverReset discards the queue, keeping the grant policy.
	RecoverReset()
	// RecoverEnqueue replays one enqueue without re-tracing it.
	RecoverEnqueue(proc int)
	// RecoverRemove replays one queue grant, reproducing the policy's
	// historical bookkeeping for that exact waiter.
	RecoverRemove(proc int) bool
}

// Replicator is one node's backup store: the replication logs of every
// lock whose manager it backs up. The simulator keeps a single Replicator
// per protocol instance (authoritative, per the package comment) and
// charges the shipping cost separately.
type Replicator struct {
	logs [][]Record // by lock id
}

// NewReplicator returns an empty backup store for lock ids below locks.
func NewReplicator(locks int) *Replicator {
	return &Replicator{logs: make([][]Record, locks)}
}

// Append logs one record and returns its modeled wire size, which the
// caller charges to the replication stream.
func (r *Replicator) Append(rec Record) int {
	r.logs[rec.Lock] = append(r.logs[rec.Lock], rec)
	return rec.Bytes()
}

// Records returns the log of one lock in append order (shared slice —
// callers replay, they do not mutate).
func (r *Replicator) Records(lock int) []Record { return r.logs[lock] }

// shipKind is the kind of a shipped journal record. sim.Msg.Kind is
// written but never read (ROADMAP item 10(e)).
const shipKind = -4

// Ship appends one record (the authoritative, journaled copy — see the
// package comment) and ships it to the manager's backup over the reliable
// transport, charging the manager's log append and the wire cost of
// synchronous replication. It must be called from the manager's service
// context, before the recorded action's effect is applied.
func (r *Replicator) Ship(s *sim.Svc, nprocs int, rec Record) {
	n := r.Append(rec)
	mgr := s.P.ID
	s.P.Stats.ReplicaLogBytes += uint64(n)
	s.ChargeList(1)
	backup := memsys.BackupOf(mgr, nprocs)
	s.E.Tracer.Lock(s.Now, mgr, trace.KindReplicaLog, rec.Lock, int64(backup), int64(n))
	if backup != mgr {
		// The record travels as n bytes on the wire; its content is
		// authoritative in-process (package comment), so no payload does.
		s.Send(backup, shipKind, n, nil, handleShip)
	}
}

// handleShip is the backup-side service routine for a shipped record: the
// append to the backup's journaled log is charged, and nothing else
// happens.
func handleShip(s *sim.Svc, m *sim.Msg) { s.ChargeList(1) }

// Replay rebuilds one lock's state from its log: the queue is reset and
// every record applied in order. The returned Image is what the failed-
// over manager installs as its non-queue lock state.
func Replay(recs []Record, q Queue) Image {
	img := Image{Holder: -1, LastReleaser: -1}
	q.RecoverReset()
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case OpEnqueue:
			q.RecoverEnqueue(rec.Proc)
		case OpGrant:
			if rec.FromQueue {
				q.RecoverRemove(rec.Proc)
			}
			img.Held = true
			img.Holder = rec.Proc
			img.Count = rec.Count
			img.US = rec.US
		case OpRelease:
			img.Held = false
			img.Holder = -1
			img.Count = 0
			img.US = nil
			img.LastReleaser = rec.Proc
			img.LastCount = rec.Count
			img.LastUS = rec.US
			img.CumPages = rec.Pages
		case OpReset:
			img.LastUS, img.CumPages = nil, nil
		}
	}
	return img
}
