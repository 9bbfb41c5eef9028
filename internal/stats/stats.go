// Package stats implements the execution-time accounting used throughout
// the reproduction: the busy/data/synch/ipc/others breakdown of Figures 4-6
// of the AEC paper, plus the fault, diff, message and synchronization
// counters behind Tables 2-4.
package stats

import "fmt"

// Category labels where a processor's cycles went, matching the paper's
// execution time breakdown.
type Category int

const (
	// Busy is useful application computation.
	Busy Category = iota
	// Data is memory access fault overhead: time stalled fetching pages
	// and diffs and bringing pages up to date on faults.
	Data
	// Synch is synchronization: waiting at barriers and performing lock
	// acquire/release operations (including coherence work done inside
	// them).
	Synch
	// IPC is time spent servicing requests from remote processors that
	// was not hidden behind an existing stall.
	IPC
	// Others covers TLB miss latency, cache miss latency, write buffer
	// stalls and interrupt overheads.
	Others
	// Recovery is fault-recovery overhead: acknowledgement sends,
	// retransmissions, and duplicate suppression performed by the
	// reliable transport when fault injection is enabled. Always zero
	// in fault-free runs (the paper's Figures 4-6 world).
	Recovery
	// NumCategories is the number of breakdown categories.
	NumCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Busy:
		return "busy"
	case Data:
		return "data"
	case Synch:
		return "synch"
	case IPC:
		return "ipc"
	case Others:
		return "others"
	case Recovery:
		return "recovery"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Breakdown accumulates cycles per category.
type Breakdown [NumCategories]uint64

// Add charges cycles to a category.
func (b *Breakdown) Add(c Category, cycles uint64) { b[c] += cycles }

// Total returns the sum over all categories.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// AddAll accumulates another breakdown into this one.
func (b *Breakdown) AddAll(o *Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Proc aggregates everything measured on one simulated processor.
type Proc struct {
	Breakdown Breakdown

	// Fault accounting (paper Figure 3).
	ReadFaults  uint64
	WriteFaults uint64
	FaultCycles uint64 // total stall attributed to access faults
	ColdFaults  uint64 // faults on pages never held locally
	TwinCycles  uint64 // cycles spent twinning pages
	PageFetches uint64

	// Diff accounting (paper Table 4).
	DiffsCreated      uint64
	DiffBytesCreated  uint64
	DiffCreateCycles  uint64
	DiffCreateHidden  uint64 // portion overlapped with synchronization
	DiffsApplied      uint64
	DiffApplyCycles   uint64
	DiffApplyHidden   uint64
	DiffsMerged       uint64 // merged diffs produced at lock releases
	MergedBytes       uint64
	DiffRequests      uint64 // remote diff fetches issued
	UselessUpdates    uint64 // pushed diffs that were discarded unused
	UpdatesPushed     uint64 // merged diffs pushed to update-set members
	UpdateBytesPushed uint64

	// Synchronization accounting (paper Table 2).
	LockAcquires    uint64
	LockReleases    uint64
	BarrierArrivals uint64
	AcquireNotices  uint64

	// Lock-policy accounting (docs/LOCKING.md; zero under the default
	// FIFO discipline, counted at the lock's manager).
	GrantBypasses uint64 // grants that passed over earlier-arrived waiters
	LeaseRenewals uint64 // lease self-renewals ahead of other waiters

	// Messaging.
	MsgsSent  uint64
	BytesSent uint64

	// IPC service time that was overlapped with an existing stall and
	// therefore not charged to the critical path.
	IPCHiddenCycles uint64

	// Fault-recovery accounting (all zero unless fault injection is on).
	Retransmits          uint64 // reliable messages retransmitted after timeout
	AcksSent             uint64 // transport-level acknowledgements sent
	DupMsgsSuppressed    uint64 // duplicate deliveries suppressed by dedup
	MsgsDropped          uint64 // transmissions the injector dropped
	LAPFallbacks         uint64 // acquires that gave up on a lost eager push
	FaultStallCycles     uint64 // injected node-stall cycles
	RecoveryHiddenCycles uint64 // recovery work overlapped with an existing stall

	// Crash-recovery accounting (all zero unless the fault schedule has
	// crash clauses; docs/ROBUSTNESS.md).
	NodeCrashes         uint64 // crash windows this node suffered
	FailoverCycles      uint64 // cycles spent in the restart failover sweep
	ReplicaLogBytes     uint64 // replication log bytes this manager shipped
	OrphanInvalidations uint64 // page copies invalidated by a crash

	// Memory system.
	WriteNoticesReceived uint64
	Invalidations        uint64
}

// Run aggregates a whole simulation: one Proc entry per processor plus
// run-level identification.
type Run struct {
	App      string
	Protocol string
	Procs    []Proc
	// Cycles is the parallel execution time: max processor finish time.
	Cycles uint64
}

// NewRun allocates a Run for n processors.
func NewRun(app, protocol string, n int) *Run {
	return &Run{App: app, Protocol: protocol, Procs: make([]Proc, n)}
}

// Clone deep-copies the run. Proc holds only scalar counters, so
// copying the slice is a full snapshot — used by sweeps that sample a
// live engine's statistics mid-run (sim.Engine.Observe).
func (r *Run) Clone() *Run {
	c := *r
	c.Procs = append([]Proc(nil), r.Procs...)
	return &c
}

// TotalBreakdown sums the per-processor breakdowns.
func (r *Run) TotalBreakdown() Breakdown {
	var b Breakdown
	for i := range r.Procs {
		b.AddAll(&r.Procs[i].Breakdown)
	}
	return b
}

// Sum folds an accessor over all processors.
func (r *Run) Sum(f func(*Proc) uint64) uint64 {
	var t uint64
	for i := range r.Procs {
		t += f(&r.Procs[i])
	}
	return t
}

// FaultCycles is the total access fault overhead across processors.
func (r *Run) FaultCycles() uint64 {
	return r.Sum(func(p *Proc) uint64 { return p.FaultCycles })
}

// LockAcquires is the total number of lock acquire events.
func (r *Run) LockAcquires() uint64 {
	return r.Sum(func(p *Proc) uint64 { return p.LockAcquires })
}

// BarrierEvents is the number of global barrier episodes (arrivals divided
// by the processor count).
func (r *Run) BarrierEvents() uint64 {
	if len(r.Procs) == 0 {
		return 0
	}
	return r.Sum(func(p *Proc) uint64 { return p.BarrierArrivals }) / uint64(len(r.Procs))
}

// DiffStats summarizes Table 4 for this run.
type DiffStats struct {
	AvgDiffBytes   float64
	AvgMergedBytes float64
	MergedPct      float64 // merged diffs as % of all diffs created
	CreateCycles   uint64  // total diff creation cost
	HiddenPct      float64 // % of creation cost hidden behind sync
	ApplyCycles    uint64
	ApplyHiddenPct float64
}

// Diffs computes the Table 4 summary.
func (r *Run) Diffs() DiffStats {
	var d DiffStats
	n := r.Sum(func(p *Proc) uint64 { return p.DiffsCreated })
	bytes := r.Sum(func(p *Proc) uint64 { return p.DiffBytesCreated })
	merged := r.Sum(func(p *Proc) uint64 { return p.DiffsMerged })
	mbytes := r.Sum(func(p *Proc) uint64 { return p.MergedBytes })
	d.CreateCycles = r.Sum(func(p *Proc) uint64 { return p.DiffCreateCycles })
	hidden := r.Sum(func(p *Proc) uint64 { return p.DiffCreateHidden })
	d.ApplyCycles = r.Sum(func(p *Proc) uint64 { return p.DiffApplyCycles })
	ah := r.Sum(func(p *Proc) uint64 { return p.DiffApplyHidden })
	if n > 0 {
		d.AvgDiffBytes = float64(bytes) / float64(n)
		d.MergedPct = 100 * float64(merged) / float64(n)
	}
	if merged > 0 {
		d.AvgMergedBytes = float64(mbytes) / float64(merged)
	}
	if d.CreateCycles > 0 {
		d.HiddenPct = 100 * float64(hidden) / float64(d.CreateCycles)
	}
	if d.ApplyCycles > 0 {
		d.ApplyHiddenPct = 100 * float64(ah) / float64(d.ApplyCycles)
	}
	return d
}
