package aec

import "aecdsm/internal/trace"

// Crash failover (docs/ROBUSTNESS.md). The simulator models a node crash
// as an outage window (no message in or out, in-flight traffic lost) plus
// the loss of the node's volatile protocol state; its computation is
// checkpointed and resumes at restart (internal/sim/crash.go). Three
// things on a crashed node are volatile and must be dealt with at the
// crash instant, atomically — the node can still message itself through
// the engine's local-delivery shortcut, so no event may ever observe
// half-recovered state:
//
//  1. Lock-manager state of the locks the node manages. The shared
//     manager service fails it over from the replication log before it
//     calls Crashed below (proto.LockMgr, internal/proto/lockmgr.go):
//     a crash changes WHEN the manager answers (requests retry across
//     the outage), never WHAT it answers. Grants in flight at the crash
//     are re-driven by the reliable transport's retransmission loop, not
//     by the failover.
//
//  2. Received LAP push buffers that nothing has consumed yet. They are
//     dropped; when the node next acquires the lock, the grant finds no
//     fresh push, times out, and takes the degraded-mode LAP fallback
//     (explicit fetches from the last owner). A partially applied buffer
//     is kept: its applied portion already landed in page frames, and the
//     applied flags are what prevents double application.
//
//  3. The node's clean page copies, which are orphaned by the crash and
//     invalidated; the sweep also erases the page's access history, so by
//     the §3.4 recency rule the next access asks the page's home for a
//     base copy instead of revalidating the frame left behind. That
//     matters because the barrier manager is not told: the node stays in
//     the page's copyset, and a merged diff the next barrier pushes to it
//     is dropped at an invalid copy (TestOrphanedCopyRefetchedAfterBarrier).
//     Only copies the home can replace qualify. A home's copy plus its
//     pending write notices reconstructs the page as of the last barrier;
//     it does not hold what this step's critical sections did to it —
//     homes learn lock-chain diffs at barriers. So these are kept:
//     pages homed here (the home copy is modeled as stable storage, like
//     the replication journal); pages with live twins, un-diffed local
//     modifications, or an outside diff of this step archived before the
//     barrier has told anyone; every page with critical-section diffs of the
//     current step, produced here (myMerged), inherited with a grant or
//     fetched from the last owner (inherited, and the grant's cumulative
//     page list, which also covers diffs fetched outside the critical
//     section), or applied from a push buffer that survives the scrub
//     above; and the page whose access fault the node is in the middle
//     of, which the handler has validated and is about to twin or hand to
//     the access. With those kept, what a re-fetch returns differs from
//     the lost copy only by the home's own writes of this step, which a
//     race-free program cannot read before the synchronization that
//     delivers them anyway — so the invalidation perturbs timing only,
//     the fault-injection contract.
//
// Diff stores (myMerged, the pages' outside-diff archives) and the
// last-releaser role survive a crash: remote processors fetch from them,
// and destroying them would change results, not timing. They ride the
// same stable-storage fiction as the replication journal.
//
// All failover work is costed: the manager service adds the orphan
// sweep's cost to the log replay's and surrenders the sum at restart, where
// the engine charges it to the node as FailoverCycles on top of the fixed
// reboot charge (sim/crash.go).

// Crashed implements proto.LockCoherence: scrub the node's unconsumed
// push buffers and invalidate its orphaned clean page copies (the managed
// locks were already failed over), returning the sweep's cost.
func (pr *AEC) Crashed(node int) uint64 {
	st := pr.ps[node]
	for _, lc := range st.locks {
		if lc != nil && lc.recv != nil && lc.recv.applied.None() {
			lc.recv = nil
		}
	}

	ctx := pr.ctxs[node]
	inval := 0
	for pg := range st.pages {
		p := &st.pages[pg]
		f := ctx.M.Peek(pg)
		if !f.Valid || !f.EverValid || f.Twin != nil {
			continue
		}
		if st.dirtyOutside.Has(pg) || st.writtenOutside.Has(pg) || st.dirtyInside.Has(pg) || p.home == node {
			continue
		}
		if pg == st.faultPage || st.hasChainDiffs(pg) {
			continue
		}
		ctx.M.Invalidate(pg)
		p.lastAccess = noAccess
		inval++
		pr.e.Tracer.Page(pr.e.Now(), node, trace.KindOrphanInval, pg, 0, 0)
	}
	ctx.P.Stats.OrphanInvalidations += uint64(inval)
	return pr.e.Params.ListCycles(inval)
}

// hasChainDiffs reports whether this processor's copy of the page may
// hold critical-section diffs of the current step; every chain it
// consults restarts when the step is finalized.
func (st *procState) hasChainDiffs(pg int) bool {
	for _, lc := range st.locks {
		if lc == nil {
			continue
		}
		if chainDiff(lc.myMerged, pg) != nil || lc.has(pg) {
			return true
		}
		if lc.recv != nil && chainDiff(lc.recv.diffs, pg) != nil {
			return true
		}
	}
	return false
}
