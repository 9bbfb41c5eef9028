// Package harness composes a simulation run — engine, shared space,
// protocol, application — and implements the experiment drivers that
// regenerate every table and figure of the AEC paper.
package harness

import (
	"fmt"

	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Result bundles everything measured in one run. It holds no reference
// to the protocol or program instance and none into the run's arena:
// the page images it was measured on, and the engine that measured them,
// are another run's by the time the caller reads it.
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
	// faults is the injected fault schedule (nil = none), for Err's message.
	faults *fault.Config
}

// Cycles returns the parallel execution time.
func (r *Result) Cycles() uint64 { return r.Run.Cycles }

// Err is the run's verdict, and the one place it is decided: nil when the
// simulation ran to completion and verified, and otherwise an error
// naming the run and why it does not count — the splitter's refusal
// (SplitErr, wrapped), a deadlock, or a failed verification (VerifyErr,
// wrapped).
func (r *Result) Err() error {
	switch {
	case r.SplitErr != nil:
		return fmt.Errorf("%s cannot run: %w", r.what(), r.SplitErr)
	case r.Deadlocked:
		return fmt.Errorf("%s deadlocked", r.what())
	case r.VerifyErr != nil:
		return fmt.Errorf("%s failed verification: %w", r.what(), r.VerifyErr)
	}
	return nil
}

// what names the run in Err: application, protocol, machine size and
// fault schedule.
func (r *Result) what() string {
	what := fmt.Sprintf("%s under %s on %d processors", r.Run.App, r.Run.Protocol, len(r.Run.Procs))
	if r.faults != nil {
		what += " with faults " + r.faults.String()
	}
	return what
}

// Must returns r when Err is nil and panics with Err otherwise: the one
// failure policy of the experiment drivers, where a failed run
// invalidates the whole table.
func (r *Result) Must() *Result {
	if err := r.Err(); err != nil {
		panic("harness: " + err.Error())
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
	res, _ := run(params, pr, prog, tr, fcfg, nil)
	return res
}

// run is the harness's one way to run a simulation: the split check, an
// arena from the free list, proto.Assemble, the run itself and the arena
// given back once the run is harvested. It also returns a copy of
// the run's statistics at each of the ascending marks, taken by the
// engine's observer (sim.Engine.Observe), which perturbs nothing. A split
// refusal is reported in the Result: the configuration cannot run, and
// no arena was taken.
func run(params memsys.Params, pr proto.Protocol, prog proto.Program, tr trace.Tracer, fcfg *fault.Config, marks []sim.Time) (res *Result, samples []*stats.Run) {
	if sc, ok := prog.(proto.SplitChecker); ok {
		if err := sc.CheckSplit(params.NumProcs); err != nil {
			r := stats.NewRun(prog.Name(), pr.Name(), params.NumProcs)
			return &Result{Run: r, SplitErr: err, faults: fcfg}, nil
		}
	}
	a := takeArena()
	m := proto.Assemble(params, pr, prog, tr, fcfg, a)
	res = &Result{Run: m.E.Run, faults: fcfg}
	if marks != nil {
		m.E.Observe(marks, func(int) { samples = append(samples, res.Run.Clone()) })
	}
	// The run markers name no lock (-1) and no page.
	if em := m.E.Tracer; em.On() {
		em.LockNote(0, 0, trace.KindRunStart, -1, int64(params.NumProcs), prog.Name()+"/"+pr.Name())
	}
	res.Deadlocked = m.Run()
	if em := m.E.Tracer; em.On() {
		em.LockNote(res.Run.Cycles, 0, trace.KindRunEnd, -1, 0, prog.Name()+"/"+pr.Name())
	}
	res.VerifyErr = prog.Err()
	// Harvested: the program has checked its results against the shared
	// memory, and nothing reads the run's pages or its engine from here
	// on. No defer — a run that panics leaves its arena to the collector.
	releaseArena(a)
	return res, samples
}
