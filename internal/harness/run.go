// Package harness composes a simulation run — engine, shared space,
// protocol, application — and implements the experiment drivers that
// regenerate every table and figure of the AEC paper.
package harness

import (
	"fmt"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Result bundles everything measured in one run. It holds no reference
// to the protocol or program instance and none into the run's region:
// the page images it was measured on are another run's by the time the
// caller reads it.
type Result struct {
	Run *stats.Run
	// VerifyErr is the application's self-check outcome.
	VerifyErr error
	// Deadlocked reports a simulation that wedged (protocol bug).
	Deadlocked bool
	// SplitErr, when non-nil, reports that the program's problem splitter
	// refused the (scale, procs) combination (proto.SplitChecker); the
	// simulation never ran and Run holds only the names and machine size.
	SplitErr error
	// faults is the injected fault schedule (nil = none), for Must's message.
	faults *fault.Config
}

// Cycles returns the parallel execution time.
func (r *Result) Cycles() uint64 { return r.Run.Cycles }

// Must returns r when its simulation ran to completion and verified, and
// panics otherwise, naming the application, protocol, machine size and
// fault schedule: the one failure policy of the experiment drivers and
// sessions, where a failed run invalidates the whole table.
func (r *Result) Must() *Result {
	what := fmt.Sprintf("harness: %s under %s on %d processors", r.Run.App, r.Run.Protocol, len(r.Run.Procs))
	if r.faults != nil {
		what += " with faults " + r.faults.String()
	}
	switch {
	case r.SplitErr != nil:
		panic(fmt.Sprintf("%s cannot run: %v", what, r.SplitErr))
	case r.Deadlocked:
		panic(what + " deadlocked")
	case r.VerifyErr != nil:
		panic(fmt.Sprintf("%s failed verification: %v", what, r.VerifyErr))
	}
	return r
}

// Run executes prog under protocol pr with the given system parameters and
// returns the measurements. It panics on configuration errors; protocol
// deadlocks are reported in the result.
func Run(params memsys.Params, pr proto.Protocol, prog proto.Program) *Result {
	return RunFaultTraced(params, pr, prog, nil, nil)
}

// RunFaultTraced is Run with an event tracer attached to every layer of
// the stack (engine, interconnect, per-processor memories, protocol) and
// deterministic fault injection: a non-nil fcfg arms the injector and the
// reliable transport before the protocol attaches (see
// aecdsm/internal/fault and docs/ROBUSTNESS.md). A nil tracer and a nil
// fcfg are exactly Run — the emitters stay off, the injector absent, and
// the simulated cycle counts are byte-identical; tracing never charges
// simulated time.
func RunFaultTraced(params memsys.Params, pr proto.Protocol, prog proto.Program, tr trace.Tracer, fcfg *fault.Config) *Result {
	m, rg, res := compose(params, pr, prog, tr, fcfg)
	if m == nil {
		return res
	}
	if tr != nil {
		ev := trace.Ev(0, 0, trace.KindRunStart)
		ev.Arg = int64(params.NumProcs)
		ev.Note = prog.Name() + "/" + pr.Name()
		tr.Trace(ev)
	}
	res.Deadlocked = m.Run()
	if tr != nil {
		ev := trace.Ev(res.Run.Cycles, 0, trace.KindRunEnd)
		ev.Note = prog.Name() + "/" + pr.Name()
		tr.Trace(ev)
	}
	res.VerifyErr = prog.Err()
	// Harvested: the program has checked its results against the shared
	// memory, and nothing reads the run's pages from here on. No defer — a
	// run that panics leaves its region to the collector.
	releaseRegion(rg)
	return res
}

// compose is the harness's part of putting a run together: the split
// check, a region from the free list and the Result the run will fill in,
// around proto.Assemble, which builds the machine without starting it, so
// callers can either run it to completion (RunFaultTraced) or drive it in
// horizon slices (Session). The caller gives the region back
// (releaseRegion) once the run is harvested or abandoned. A nil machine is
// a split refusal, reported in the Result: the configuration cannot run,
// and neither machine nor region was taken.
func compose(params memsys.Params, pr proto.Protocol, prog proto.Program, tr trace.Tracer, fcfg *fault.Config) (*proto.Machine, *mem.Region, *Result) {
	if sc, ok := prog.(proto.SplitChecker); ok {
		if err := sc.CheckSplit(params.NumProcs); err != nil {
			run := stats.NewRun(prog.Name(), pr.Name(), params.NumProcs)
			return nil, nil, &Result{Run: run, SplitErr: err, faults: fcfg}
		}
	}
	rg := takeRegion()
	m := proto.Assemble(params, pr, prog, tr, fcfg, rg)
	return m, rg, &Result{Run: m.E.Run, faults: fcfg}
}
