package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/stats"
)

// KeyStats renders the deterministic regression snapshot behind the golden
// test: the full Table 1 (system parameters, scale-independent and
// byte-comparable against results/tables_full_scale.txt) followed by the
// key per-application statistics under AEC and TreadMarks. Everything
// printed is integral counts or exact cycle totals — no floating-point
// percentages whose formatting could drift — so any byte difference is a
// real behavioural change in an application or a protocol.
func (e *Experiments) KeyStats(w io.Writer) {
	e.prefetch(e.specsFor(AllApps(), []ProtocolKind{ProtoAEC, ProtoTM}))
	e.Table1(w)
	fmt.Fprintf(w, "\nKey statistics at scale %g:\n", e.Scale)
	fmt.Fprintf(w, "  %-10s %-6s %14s %10s %10s %12s %10s %10s\n",
		"Appl", "Proto", "cycles", "acquires", "barriers", "faultcycles", "diffs", "diffbytes")
	for _, app := range AllApps() {
		for _, kind := range []ProtocolKind{ProtoAEC, ProtoTM} {
			res := e.Run(app, kind)
			r := res.Run
			fmt.Fprintf(w, "  %-10s %-6s %14d %10d %10d %12d %10d %10d\n",
				app, kind, r.Cycles, r.LockAcquires(), r.BarrierEvents(),
				r.FaultCycles(),
				r.Sum(func(p *stats.Proc) uint64 { return p.DiffsCreated }),
				r.Sum(func(p *stats.Proc) uint64 { return p.DiffBytesCreated }))
		}
	}
}
