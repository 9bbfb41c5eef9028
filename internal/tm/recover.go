package tm

// Crash failover for TreadMarks (docs/ROBUSTNESS.md): only the lock
// managers get replicated state, and the shared manager service
// (proto.LockMgr) fails them over. TM records no chain metadata at the
// manager, so a grant/release record carries just the processor; replay
// rebuilds the wait queue (with the grant policy's bookkeeping intact)
// and the held/holder/last-releaser triple. Queued waiters' vector clocks
// ride the enqueue records conceptually — their requests live in per-proc
// state the crash does not destroy.

// Crashed implements proto.LockCoherence. Unlike AEC, no page copies are
// invalidated at a crash: TreadMarks' consistency information (intervals,
// write notices, lazily created diffs) is woven through every processor's
// volatile state, and there is no degraded-mode fetch path equivalent to
// AEC's LAP fallback to absorb a surgically destroyed copy. The interval
// stores ride the same stable-storage fiction as the replication journal.
func (pr *TM) Crashed(node int) uint64 { return 0 }
