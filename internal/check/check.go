// Package check is the correctness-tooling subsystem of the reproduction:
// a seedable randomized workload generator, a differential runner that
// executes the same seeded workload under AEC, TreadMarks, Munin and the
// ideal shared-memory protocol and demands bit-identical results, and a
// runtime invariant auditor that rides the internal/trace event stream —
// so it works on every protocol without touching any hot path.
//
// The paper's central claim is that AEC is behaviourally equivalent to
// the other protocols for lock-disciplined programs while being faster.
// The six hand-written applications exercise a handful of sharing
// patterns; this package generates unboundedly many. A failure always
// reproduces from its seed (cmd/fuzzdsm -seed N -iters 1), and Shrink
// replays reduced variants of the same seed to find a minimal repro.
package check

import (
	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
)

// Workload is one fully-derived fuzz iteration: the synthetic program
// configuration plus the machine shape it runs on. Everything is a pure
// function of (Seed, forced proc count), so a workload is its seed.
type Workload struct {
	Seed     uint64
	Procs    int
	PageSize int
	// Policy names the lock managers' grant discipline for every protocol
	// of the comparison set ("" = fifo; see internal/lockpolicy). It is an
	// override, not seed-derived, so every historical seed still denotes
	// the exact same workload — the fuzz driver sweeps it explicitly.
	Policy string
	Cfg    apps.SynthConfig
}

// Generate derives the workload for one seed. procs forces the processor
// count when > 0; otherwise it is drawn from the seed (2–16). The draw is
// consumed either way, so forcing the count changes nothing else: a
// report's "reproduce: ... -procs N" line rebuilds the reported workload.
func Generate(seed uint64, procs int) Workload {
	rng := apps.NewRand(seed ^ 0xC3EC4C3EC4) // decorrelate from the app's own stream
	if drawn := 2 + rng.Intn(15); procs <= 0 {
		procs = drawn
	}
	cfg := apps.SynthConfig{
		Seed:         seed,
		Locks:        1 + rng.Intn(6),
		CellsPerLock: 2 + rng.Intn(7),
		Phases:       1 + rng.Intn(4),
		OpsPerPhase:  1 + rng.Intn(8),
		PadWords:     rng.Intn(160),
		Notices:      rng.Intn(2) == 0,
	}
	pageSizes := []int{1024, 2048, 4096}
	return Workload{
		Seed:     seed,
		Procs:    procs,
		PageSize: pageSizes[rng.Intn(len(pageSizes))],
		Cfg:      cfg,
	}
}

// Params builds the simulated machine for the workload: the paper's
// default system with the workload's processor count (near-square mesh,
// via the generalized memsys.MeshFor geometry helper) and page size.
// Above the paper's 16 processors the scaling architecture switches on —
// radix-16 barrier combining and hash-sharded homes and lock managers —
// so large differential runs exercise the same configuration the
// -scaling sweep measures (docs/SCALING.md).
func (w Workload) Params() memsys.Params {
	p := memsys.Default().ForProcs(w.Procs)
	p.PageSize = w.PageSize
	p.LockPolicy = w.Policy
	if w.Procs > 16 {
		p.BarrierRadix = 16
		p.ShardHomes = true
		p.ShardManagers = true
	}
	return p
}
