package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/stats"
)

// RecoveryKinds are the protocols the recovery sweep compares: every DSM
// protocol that carries a replicated lock manager. The ideal machine is
// omitted — it has no network to fault and no manager to crash.
func RecoveryKinds() []ProtocolKind {
	return []ProtocolKind{ProtoAEC, ProtoAECNoLAP, ProtoTM, ProtoMunin}
}

// recoveryScenario is one fault schedule of the sweep grid.
type recoveryScenario struct {
	name string
	spec string // fault.ParseSpec clause list; "" = fault-free
}

// recoveryScenarios builds the sweep grid: a fault-free anchor, the two
// message-loss tiers (independent drops, correlated bursts), and the
// state-destroying tier — two mid-run node crashes, alone and stacked on
// a drop burst. The crash cycles sit inside every protocol's run at the
// quarter-scale problem sizes (the shortest, AEC on IS, runs ~10M
// cycles), so each non-anchor crash row really exercises the
// primary-backup failover and orphan-invalidation paths.
func recoveryScenarios() []recoveryScenario {
	const crashes = "crash=2@2000000:500000,crash=5@5000000:500000"
	return []recoveryScenario{
		{"fault-free", ""},
		{"drop", "drop=0.02"},
		{"burst", "burst=0.02:6"},
		{"crash", crashes},
		{"crash+burst", "burst=0.02:6," + crashes},
	}
}

// RecoverySweep measures app under every RecoveryKinds protocol across
// the recovery fault grid and renders the table: runtime, slowdown
// relative to the same protocol's fault-free run, recovery overhead as a
// share of total busy cycles, LAP full-hit rate, and the crash-tolerance
// counters (node crashes taken, replication log traffic, orphan page
// invalidations, degraded-mode LAP fallbacks). Results are a determinism
// check as much as a cost sweep: every faulted run must still verify
// (Result.Must) — the differential fuzzer additionally pins its checksums
// to the fault-free run bit for bit (docs/ROBUSTNESS.md). The fault-free
// anchor row is the table spec, shared with the paper's tables.
func (e *Experiments) RecoverySweep(w io.Writer, app string) {
	kinds := RecoveryKinds()
	scens := recoveryScenarios()
	at := func(sc recoveryScenario, k ProtocolKind) runSpec {
		spec := e.spec(app, k, 2)
		if sc.spec != "" {
			spec.faults, spec.faultSeed = sc.spec, 11
		}
		return spec
	}
	var specs []runSpec
	for _, sc := range scens {
		for _, k := range kinds {
			specs = append(specs, at(sc, k))
		}
	}
	e.prefetch(specs)

	fmt.Fprintf(w, "Recovery sweep: %s at scale %.2f (docs/ROBUSTNESS.md).\n", app, e.Scale)
	fmt.Fprintf(w, "Fault schedules per row; crash rows take two node outages (nodes 2 and 5,\n")
	fmt.Fprintf(w, "500k cycles each) with primary-backup lock-manager failover.\n")
	fmt.Fprintf(w, "vs clean = runtime over the same protocol's fault-free run; recov%% = recovery\n")
	fmt.Fprintf(w, "overhead share of total busy cycles; log KB = replication journal traffic;\n")
	fmt.Fprintf(w, "orphans = cached pages invalidated on their holder's crash; fallbk = degraded-mode\n")
	fmt.Fprintf(w, "LAP fallback fetches. Every faulted run computes the fault-free answer.\n\n")

	fmt.Fprintf(w, "  %-12s %-9s %12s %9s %7s %6s %8s %7s %8s %7s\n",
		"scenario", "protocol", "cycles", "vs clean", "recov%", "LAP%",
		"crashes", "log KB", "orphans", "fallbk")
	for _, sc := range scens {
		for _, k := range kinds {
			out := e.outcome(at(sc, k))
			r := out.run
			clean := e.Run(app, k).Cycles()
			b := r.TotalBreakdown()
			fmt.Fprintf(w, "  %-12s %-9s %12d %8.2fx %6.1f%% %6s %8d %7.1f %8d %7d\n",
				sc.name, k, r.Cycles,
				float64(r.Cycles)/float64(clean),
				pct(b[stats.Recovery], b.Total()),
				fmtRate(OverallLAPRate(out.lap)),
				r.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes }),
				float64(r.Sum(func(p *stats.Proc) uint64 { return p.ReplicaLogBytes }))/1024,
				r.Sum(func(p *stats.Proc) uint64 { return p.OrphanInvalidations }),
				r.Sum(func(p *stats.Proc) uint64 { return p.LAPFallbacks }))
		}
		fmt.Fprintln(w)
	}
}
