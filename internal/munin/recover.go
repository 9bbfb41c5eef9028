package munin

// Crash failover for Munin (docs/ROBUSTNESS.md): lock managers only, as
// in TreadMarks, failed over by the shared manager service
// (proto.LockMgr). Replay rebuilds the wait queue and the
// held/holder/last-releaser triple; the grant record's update set restores
// the LAP-restricted distribution state of the current tenure.

// Crashed implements proto.LockCoherence. No page copies are invalidated
// at a crash: Munin is write-update — the home's copy and every sharer's
// copy are kept current by the eager release-time fan-out, and surgically
// destroying a copy mid-protocol would require copyset surgery at the
// homes to stay sound. The home copies and copysets ride the same
// stable-storage fiction as the replication journal; AEC's orphan
// invalidation has no analogue here.
func (pr *Munin) Crashed(node int) uint64 { return 0 }
