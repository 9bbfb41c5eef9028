package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// ScalingKinds are the four protocols the scaling sweep compares: the
// ideal shared-memory machine (the cache-coherent reference point) and
// the three software DSM protocols.
func ScalingKinds() []ProtocolKind {
	return []ProtocolKind{ProtoIdeal, ProtoAEC, ProtoTM, ProtoMunin}
}

// remRefsPerSync returns the run's remote references per synchronization
// operation: messages sent per lock acquire or barrier arrival. This is
// the sweep's stand-in for Golab's CC-vs-DSM remote-reference metric —
// under the ideal (cache-coherent-like) machine it stays flat as the
// machine grows, while the DSM protocols' consistency fan-out makes it
// climb with the processor count (docs/SCALING.md).
func remRefsPerSync(r *stats.Run) float64 {
	msgs := r.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
	syncs := r.Sum(func(p *stats.Proc) uint64 { return p.LockAcquires + p.BarrierArrivals })
	if syncs == 0 {
		return 0
	}
	return float64(msgs) / float64(syncs)
}

// scalingParams is the machine configuration the sweep runs at every
// size: the paper's Table 1 node on an N-processor near-square mesh with
// the full scaling architecture enabled — radix-16 barrier combining and
// hash-sharded homes and lock managers — so every row measures the same
// architecture and only the machine size varies. At 16 processors the
// radix-16 tree degenerates to the paper's flat barrier.
func (e *Experiments) scalingParams(n int) memsys.Params {
	p := e.Params.ForProcs(n)
	p.BarrierRadix = 16
	p.ShardHomes = true
	p.ShardManagers = true
	return p
}

// ScalingSweep measures app at every requested machine size under the
// four ScalingKinds protocols and renders the sweep table: runtime,
// runtime relative to the ideal machine at the same size, LAP full-hit
// rate, recovery overhead under the "light" fault preset, and remote
// references per synchronization operation. Each cell is two specs on the
// scalingParams machine — a clean run and its light-fault twin — memoized
// like any table run (docs/SCALING.md).
func (e *Experiments) ScalingSweep(w io.Writer, app string, procsList []int) {
	kinds := ScalingKinds()
	// Drop machine sizes the app's problem splitter cannot feed at this
	// scale (proto.SplitChecker) instead of letting every cell of the row
	// fail; the skipped sizes are reported under the table header.
	var skipped []string
	if sc, ok := e.program(runSpec{app: app}).(proto.SplitChecker); ok {
		kept := procsList[:0:0]
		for _, n := range procsList {
			if err := sc.CheckSplit(n); err != nil {
				skipped = append(skipped, fmt.Sprintf("  %5d procs skipped: %v", n, err))
				continue
			}
			kept = append(kept, n)
		}
		procsList = kept
	}
	// Each cell is a clean run ("") and its "light"-fault twin.
	at := func(n int, k ProtocolKind, faults string) runSpec {
		spec := e.spec(app, k, 2)
		spec.params, spec.faults = e.scalingParams(n), faults
		return spec
	}
	var specs []runSpec
	for _, n := range procsList {
		for _, k := range kinds {
			specs = append(specs, at(n, k, ""), at(n, k, "light"))
		}
	}
	e.prefetch(specs)

	fmt.Fprintf(w, "Scaling sweep: %s at scale %.2f (docs/SCALING.md).\n", app, e.Scale)
	fmt.Fprintf(w, "Radix-16 barrier combining, hash-sharded homes and lock managers at every size.\n")
	fmt.Fprintf(w, "recov%% = recovery overhead under the \"light\" fault preset;\n")
	fmt.Fprintf(w, "remref/sync = messages per lock acquire or barrier arrival (Golab's CC-vs-DSM shape:\n")
	fmt.Fprintf(w, "flat for the CC-like ideal machine, growing with N for the DSM protocols).\n\n")
	for _, s := range skipped {
		fmt.Fprintln(w, s)
	}
	if len(procsList) == 0 {
		fmt.Fprintf(w, "\n  no runnable machine sizes at scale %.2f.\n", e.Scale)
		return
	}
	if len(skipped) > 0 {
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %5s %-9s %14s %9s %6s %7s %12s\n",
		"procs", "protocol", "cycles", "vs ideal", "LAP%", "recov%", "remref/sync")
	for _, n := range procsList {
		var ideal uint64
		for _, k := range kinds {
			clean, light := e.outcome(at(n, k, "")), e.outcome(at(n, k, "light"))
			if k == ProtoIdeal {
				ideal = clean.run.Cycles
			}
			// Recovery overhead as a share of the faulted twin's total busy
			// cycles.
			b := light.run.TotalBreakdown()
			fmt.Fprintf(w, "  %5d %-9s %14d %8.2fx %6s %6.1f%% %12.1f\n",
				n, k, clean.run.Cycles,
				float64(clean.run.Cycles)/float64(ideal),
				fmtRate(OverallLAPRate(clean.lap)), pct(b[stats.Recovery], b.Total()),
				remRefsPerSync(clean.run))
		}
		fmt.Fprintln(w)
	}

	// Qualitative Golab-shape check: the growth of remote references per
	// synchronization operation from the smallest to the largest machine.
	lo, hi := procsList[0], procsList[len(procsList)-1]
	fmt.Fprintf(w, "remref/sync growth %d -> %d procs:", lo, hi)
	for _, k := range kinds {
		a := remRefsPerSync(e.outcome(at(lo, k, "")).run)
		b := remRefsPerSync(e.outcome(at(hi, k, "")).run)
		growth := 0.0
		if a > 0 {
			growth = b / a
		}
		fmt.Fprintf(w, "  %s %.1fx", k, growth)
	}
	fmt.Fprintln(w)
}
