package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// timelineSteps is the number of horizon samples per protocol.
const timelineSteps = 6

// timelineKinds are the protocols the timeline compares.
func timelineKinds() []ProtocolKind { return []ProtocolKind{ProtoAEC, ProtoTM} }

// timelineSnapshots samples one protocol's statistics at sixths of its own
// runtime: the memoized (and, with a Tracer, traced) table run fixes the
// total, then one untraced run — the events are already in the stream —
// is observed at the five marks and its final statistics are the sixth.
func (e *Experiments) timelineSnapshots(app string, kind ProtocolKind) (total uint64, snaps []*stats.Run) {
	spec := e.spec(app, kind, 2)
	total = e.outcome(spec).run.Cycles
	marks := make([]sim.Time, timelineSteps-1)
	for i := range marks {
		marks[i] = total * uint64(i+1) / timelineSteps
	}
	res, snaps := run(spec.params, NewProtocol(spec.proto, spec.ns), e.program(spec), nil, nil, marks)
	return total, append(snaps, res.Must().Run)
}

// TimelineSweep renders the execution timeline of one application: the
// cumulative machine-wide cycle breakdown sampled at sixths of each
// protocol's own runtime.
func (e *Experiments) TimelineSweep(w io.Writer, app string) {
	e.prefetch(e.specsFor([]string{app}, timelineKinds()))
	fmt.Fprintf(w, "Execution timeline: %s at scale %.2f.\n", app, e.Scale)
	fmt.Fprintf(w, "Cumulative machine-wide cycle breakdown sampled at sixths of each protocol's\n")
	fmt.Fprintf(w, "own runtime. Warm and cold sampling render identical bytes (docs/PERFORMANCE.md).\n\n")
	fmt.Fprintf(w, "  %-9s %4s %14s %14s %14s %14s %12s %10s %10s\n",
		"protocol", "frac", "horizon", "busy", "data", "synch", "ipc", "others", "msgs")
	for _, kind := range timelineKinds() {
		total, snaps := e.timelineSnapshots(app, kind)
		for i, snap := range snaps {
			horizon := total * uint64(i+1) / timelineSteps
			b := snap.TotalBreakdown()
			msgs := snap.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
			fmt.Fprintf(w, "  %-9s  %d/%d %14d %14d %14d %14d %12d %10d %10d\n",
				kind, i+1, timelineSteps, horizon,
				b[stats.Busy], b[stats.Data], b[stats.Synch], b[stats.IPC], b[stats.Others], msgs)
		}
		fmt.Fprintln(w)
	}
}
