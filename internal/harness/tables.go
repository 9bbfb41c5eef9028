package harness

import (
	"fmt"
	"io"
	"strings"

	"aecdsm/internal/stats"
)

// specsFor builds the (app, protocol, ns) cross product a table submits
// to the prefetching scheduler before formatting (ns defaults to 2 when
// none is given).
func (e *Experiments) specsFor(appsList []string, kinds []ProtocolKind, nss ...int) []runSpec {
	if len(nss) == 0 {
		nss = []int{2}
	}
	specs := make([]runSpec, 0, len(appsList)*len(kinds)*len(nss))
	for _, app := range appsList {
		for _, k := range kinds {
			for _, ns := range nss {
				specs = append(specs, e.spec(app, k, ns))
			}
		}
	}
	return specs
}

// Table1 prints the system parameter table (Table 1 of the paper).
func (e *Experiments) Table1(w io.Writer) {
	p := e.Params
	fmt.Fprintln(w, "Table 1: Defaults for System Params. 1 cycle = 10 ns.")
	rows := [][2]string{
		{"Number of procs", fmt.Sprintf("%d", p.NumProcs)},
		{"TLB size", fmt.Sprintf("%d entries", p.TLBEntries)},
		{"TLB fill service time", fmt.Sprintf("%d cycles", p.TLBFillCycles)},
		{"All interrupts", fmt.Sprintf("%d cycles", p.InterruptCycles)},
		{"Page size", fmt.Sprintf("%d bytes", p.PageSize)},
		{"Total cache", fmt.Sprintf("%dK bytes", p.CacheBytes/1024)},
		{"Cache line size", fmt.Sprintf("%d bytes", p.CacheLineBytes)},
		{"Write buffer size", "4 entries"}, // the paper's; nothing models write-buffer stalls
		{"Memory setup time", fmt.Sprintf("%d cycles", p.MemSetupCycles)},
		{"Memory access time", fmt.Sprintf("%.2f cycles/word", p.MemPerWordCycles)},
		{"I/O bus setup time", fmt.Sprintf("%d cycles", p.IOBusSetupCycles)},
		{"I/O bus access time", fmt.Sprintf("%.0f cycles/word", p.IOBusPerWordCycles)},
		{"Network path width", fmt.Sprintf("%d bits (bidir)", p.NetPathWidthBits)},
		{"Messaging overhead", fmt.Sprintf("%d cycles", p.MsgOverheadCycles)},
		{"Switch latency", fmt.Sprintf("%d cycles", p.SwitchCycles)},
		{"Wire latency", fmt.Sprintf("%d cycles", p.WireCycles)},
		{"List processing", fmt.Sprintf("%d cycles/element", p.ListPerElemCycles)},
		{"Page twinning", fmt.Sprintf("%.0f cycles/word + mem", p.TwinPerWordCycles)},
		{"Diff appl/creation", fmt.Sprintf("%.0f cycles/word + mem", p.DiffPerWordCycles)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %s\n", r[0], r[1])
	}
}

// Table2 prints the synchronization event counts per application (Table 2
// of the paper), measured under AEC.
func (e *Experiments) Table2(w io.Writer) {
	e.prefetch(e.specsFor(AllApps(), []ProtocolKind{ProtoAEC}))
	fmt.Fprintln(w, "Table 2: Synchronization events in our applications.")
	fmt.Fprintf(w, "  %-10s %8s %12s %15s\n", "Appl", "# locks", "# acq events", "# barrier events")
	for _, app := range AllApps() {
		out := e.outcome(e.spec(app, ProtoAEC, 2))
		fmt.Fprintf(w, "  %-10s %8d %12d %15d\n",
			app, out.numLocks, out.run.LockAcquires(), out.run.BarrierEvents())
	}
}

// Table3 prints the LAP success rates per lock-variable group for Ns=2
// (Table 3 of the paper).
func (e *Experiments) Table3(w io.Writer) {
	e.prefetch(e.specsFor(AllApps(), []ProtocolKind{ProtoAEC}))
	fmt.Fprintln(w, "Table 3: LAP Success Rates for Ns = 2 (percent).")
	fmt.Fprintf(w, "  %-10s %-28s %8s %7s %6s %7s %8s %8s\n",
		"Appl", "lock group", "# events", "% total", "LAP", "waitQ", "+affin", "+virtQ")
	for _, app := range AllApps() {
		res := e.Run(app, ProtoAEC)
		total := res.Run.LockAcquires()
		for _, row := range e.LAP(app, 2) {
			fmt.Fprintf(w, "  %-10s %-28s %8d %6.1f%% %6s %7s %8s %8s\n",
				app, row.Group, row.Events, pct(row.Events, total),
				fmtRate(row.Full), fmtRate(row.WaitQ), fmtRate(row.WaitAff), fmtRate(row.WaitVirt))
		}
	}
}

// Figure3 prints the normalized memory access fault overhead under AEC
// without LAP (100) and AEC, for the lock-intensive applications.
func (e *Experiments) Figure3(w io.Writer) {
	e.prefetch(e.specsFor(LockApps(), []ProtocolKind{ProtoAECNoLAP, ProtoAEC}))
	fmt.Fprintln(w, "Figure 3: Access Fault Overheads Under AEC without LAP (noLAP=100) and AEC (LAP).")
	fmt.Fprintf(w, "  %-10s %14s %14s %8s\n", "Appl", "noLAP (cycles)", "LAP (cycles)", "LAP (%)")
	for _, app := range LockApps() {
		base := e.Run(app, ProtoAECNoLAP).Run.FaultCycles()
		lap := e.Run(app, ProtoAEC).Run.FaultCycles()
		fmt.Fprintf(w, "  %-10s %14d %14d %7.0f%%\n", app, base, lap, pct(lap, base))
	}
}

// breakdownRow prints one normalized execution-time breakdown bar.
func breakdownRow(w io.Writer, label string, b stats.Breakdown, norm uint64) {
	total := b.Total()
	fmt.Fprintf(w, "  %-18s %5.0f%% |", label, pct(total, norm))
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		fmt.Fprintf(w, " %s %4.1f%%", cat, pct(b[cat], norm))
	}
	fmt.Fprintln(w)
}

// figureBreakdown renders a paper-style two-bar comparison figure.
func (e *Experiments) figureBreakdown(w io.Writer, title string, appsList []string, left, right ProtocolKind) {
	e.prefetch(e.specsFor(appsList, []ProtocolKind{left, right}))
	fmt.Fprintln(w, title)
	for _, app := range appsList {
		lb := e.Run(app, left).Run.TotalBreakdown()
		rb := e.Run(app, right).Run.TotalBreakdown()
		norm := lb.Total()
		fmt.Fprintf(w, " %s\n", app)
		breakdownRow(w, "  "+string(left), lb, norm)
		breakdownRow(w, "  "+string(right), rb, norm)
	}
}

// Figure4 prints the running time breakdown under AEC without LAP (=100)
// and AEC for the lock-intensive applications.
func (e *Experiments) Figure4(w io.Writer) {
	e.figureBreakdown(w,
		"Figure 4: Running Time Under AEC without LAP (noLAP=100) and AEC (LAP).",
		LockApps(), ProtoAECNoLAP, ProtoAEC)
}

// Table4 prints the diff statistics under AEC (Table 4 of the paper).
func (e *Experiments) Table4(w io.Writer) {
	e.prefetch(e.specsFor(AllApps(), []ProtocolKind{ProtoAEC}))
	fmt.Fprintln(w, "Table 4: Diff statistics in AEC.")
	fmt.Fprintf(w, "  %-10s %6s %8s %8s %12s %8s\n",
		"Appl", "Size", "MrgSize", "Merged", "Create(cy)", "Hidden")
	for _, app := range AllApps() {
		d := e.Run(app, ProtoAEC).Run.Diffs()
		fmt.Fprintf(w, "  %-10s %6.0f %8.0f %7.2f%% %12d %7.1f%%\n",
			app, d.AvgDiffBytes, d.AvgMergedBytes, d.MergedPct, d.CreateCycles, d.HiddenPct)
	}
}

// Figure5 prints the execution time breakdowns under TreadMarks (=100)
// and AEC for the barrier-dominated applications.
func (e *Experiments) Figure5(w io.Writer) {
	e.figureBreakdown(w,
		"Figure 5: Execution Times Under TM (=100) and AEC.",
		BarrierApps(), ProtoTM, ProtoAEC)
}

// Figure6 prints the execution time breakdowns under TreadMarks (=100)
// and AEC for the lock-intensive applications.
func (e *Experiments) Figure6(w io.Writer) {
	e.figureBreakdown(w,
		"Figure 6: Execution Times Under TM (=100) and AEC.",
		LockApps(), ProtoTM, ProtoAEC)
}

// NsSweep prints the LAP accuracy and runtime for update-set sizes 1-3
// (the robustness study of §5.1: Ns=2 is the sweet spot).
func (e *Experiments) NsSweep(w io.Writer) {
	e.prefetch(e.specsFor(LockApps(), []ProtocolKind{ProtoAEC}, 1, 2, 3))
	fmt.Fprintln(w, "Ns sweep (update set size 1-3): LAP success rate / normalized runtime.")
	fmt.Fprintf(w, "  %-10s", "Appl")
	for ns := 1; ns <= 3; ns++ {
		fmt.Fprintf(w, "   Ns=%d rate  Ns=%d time", ns, ns)
	}
	fmt.Fprintln(w)
	for _, app := range LockApps() {
		fmt.Fprintf(w, "  %-10s", app)
		base := e.RunNs(app, ProtoAEC, 1).Cycles()
		for ns := 1; ns <= 3; ns++ {
			res := e.RunNs(app, ProtoAEC, ns)
			rate := OverallLAPRate(e.LAP(app, ns))
			fmt.Fprintf(w, "   %8s%%  %8.1f%%", fmtRate(rate), pct(res.Cycles(), base))
		}
		fmt.Fprintln(w)
	}
}

// LAPRobustness prints the §5.1 cross-protocol study: LAP success rates
// for the lock-intensive applications measured under AEC and, passively,
// under TreadMarks — the paper finds they differ by no more than ~10%.
func (e *Experiments) LAPRobustness(w io.Writer) {
	e.prefetch(e.specsFor(LockApps(), []ProtocolKind{ProtoAEC, ProtoTM}))
	fmt.Fprintln(w, "LAP robustness (§5.1): overall success rate under AEC vs TreadMarks.")
	fmt.Fprintf(w, "  %-10s %10s %10s %8s\n", "Appl", "under AEC", "under TM", "delta")
	for _, app := range LockApps() {
		a := OverallLAPRate(e.LAPUnder(app, ProtoAEC))
		t := OverallLAPRate(e.LAPUnder(app, ProtoTM))
		fmt.Fprintf(w, "  %-10s %9s%% %9s%% %7.1f\n", app, fmtRate(a), fmtRate(t), a-t)
	}
}

// MuninTraffic prints the §1 claim experiment: applying LAP to a
// Munin-style eager-update protocol restricts the update traffic (diffs
// pushed at releases), at the cost of page refetches by invalidated
// sharers.
func (e *Experiments) MuninTraffic(w io.Writer) {
	e.prefetch(e.specsFor(LockApps(), []ProtocolKind{ProtoMunin, ProtoMuninLAP}))
	fmt.Fprintln(w, "Munin update-traffic restriction via LAP (§1 proposal).")
	fmt.Fprintf(w, "  %-10s %14s %14s %9s %14s %14s\n",
		"Appl", "Munin upd (B)", "+LAP upd (B)", "upd %", "Munin tot (B)", "+LAP tot (B)")
	for _, app := range LockApps() {
		base := e.Run(app, ProtoMunin)
		lapRes := e.Run(app, ProtoMuninLAP)
		upd := func(r *Result) uint64 {
			return r.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdateBytesPushed })
		}
		tot := func(r *Result) uint64 {
			return r.Run.Sum(func(p *stats.Proc) uint64 { return p.BytesSent })
		}
		u0, u1 := upd(base), upd(lapRes)
		fmt.Fprintf(w, "  %-10s %14d %14d %8.1f%% %14d %14d\n",
			app, u0, u1, pct(u1, u0), tot(base), tot(lapRes))
	}
}

// overviewKinds is Kinds with the ideal lower bound leading:
// ProtocolsOverview's column order, and the order All submits its runs in.
func overviewKinds() []ProtocolKind {
	all := Kinds()
	return append([]ProtocolKind{ProtoIdeal}, all[:len(all)-1]...)
}

// ProtocolsOverview prints one normalized-runtime row per application for
// every protocol in the repository — the related-work landscape of §6
// (ideal lower bound, AEC with and without LAP, TreadMarks and its Lazy
// Hybrid variation, Munin with and without LAP-restricted updates),
// normalized to TreadMarks = 100.
func (e *Experiments) ProtocolsOverview(w io.Writer) {
	kinds := overviewKinds()
	e.prefetch(e.specsFor(AllApps(), kinds))
	fmt.Fprintln(w, "Protocol overview: parallel execution time normalized to TM = 100.")
	fmt.Fprintf(w, "  %-10s", "Appl")
	for _, k := range kinds {
		fmt.Fprintf(w, " %10s", k)
	}
	fmt.Fprintln(w)
	for _, app := range AllApps() {
		norm := e.Run(app, ProtoTM).Cycles()
		fmt.Fprintf(w, "  %-10s", app)
		for _, k := range kinds {
			fmt.Fprintf(w, " %9.1f%%", pct(e.Run(app, k).Cycles(), norm))
		}
		fmt.Fprintln(w)
	}
}

// Speedup prints parallel speedup (T1/Tp) for 1-32 processors under AEC
// and TreadMarks — not a paper figure, but the natural scalability view of
// the same simulations (the mesh grows with the processor count). Each
// cell is the table spec on another machine shape, so the 16-processor row
// shares its runs with the paper's tables.
func (e *Experiments) Speedup(w io.Writer, app string) {
	shapes := []struct{ w, h int }{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}}
	kinds := []ProtocolKind{ProtoAEC, ProtoTM}
	at := func(w, h int, k ProtocolKind) runSpec {
		spec := e.spec(app, k, 2)
		spec.params.MeshW, spec.params.MeshH, spec.params.NumProcs = w, h, w*h
		return spec
	}
	var specs []runSpec
	for _, sh := range shapes {
		for _, k := range kinds {
			specs = append(specs, at(sh.w, sh.h, k))
		}
	}
	e.prefetch(specs)

	fmt.Fprintf(w, "Speedup for %s (T1/Tp).\n  %-6s", app, "procs")
	for _, k := range kinds {
		fmt.Fprintf(w, " %10s", k)
	}
	fmt.Fprintln(w)
	for _, sh := range shapes {
		fmt.Fprintf(w, "  %-6d", sh.w*sh.h)
		for _, k := range kinds {
			t1 := e.outcome(at(1, 1, k)).run.Cycles
			tp := e.outcome(at(sh.w, sh.h, k)).run.Cycles
			fmt.Fprintf(w, " %9.2fx", float64(t1)/float64(tp))
		}
		fmt.Fprintln(w)
	}
}

// All renders every table and figure in paper order. The union of every
// table's spec set is submitted to the scheduler up front, so the worker
// pool drains the whole suite at maximum width instead of per-table
// batches.
func (e *Experiments) All(w io.Writer) {
	e.prefetch(append(e.specsFor(AllApps(), overviewKinds()),
		e.specsFor(LockApps(), []ProtocolKind{ProtoAEC}, 1, 2, 3)...))
	sep := strings.Repeat("-", 78)
	e.Table1(w)
	fmt.Fprintln(w, sep)
	e.Table2(w)
	fmt.Fprintln(w, sep)
	e.Table3(w)
	fmt.Fprintln(w, sep)
	e.Figure3(w)
	fmt.Fprintln(w, sep)
	e.Figure4(w)
	fmt.Fprintln(w, sep)
	e.Table4(w)
	fmt.Fprintln(w, sep)
	e.Figure5(w)
	fmt.Fprintln(w, sep)
	e.Figure6(w)
	fmt.Fprintln(w, sep)
	e.NsSweep(w)
	fmt.Fprintln(w, sep)
	e.LAPRobustness(w)
	fmt.Fprintln(w, sep)
	e.MuninTraffic(w)
	fmt.Fprintln(w, sep)
	e.ProtocolsOverview(w)
}
