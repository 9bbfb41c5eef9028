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
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// memorySharer is implemented by protocols (the ideal one) under which all
// processors view a single physical memory.
type memorySharer interface {
	SharesMemory() bool
}

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
	eng, rg, res := compose(params, pr, prog, tr, fcfg)
	if eng == nil {
		return res
	}
	if tr != nil {
		ev := trace.Ev(0, 0, trace.KindRunStart)
		ev.Arg = int64(params.NumProcs)
		ev.Note = prog.Name() + "/" + pr.Name()
		tr.Trace(ev)
	}
	eng.Start()
	if tr != nil {
		ev := trace.Ev(res.Run.Cycles, 0, trace.KindRunEnd)
		ev.Note = prog.Name() + "/" + pr.Name()
		tr.Trace(ev)
	}
	res.VerifyErr, res.Deadlocked = prog.Err(), eng.Deadlocked
	// Harvested: the program has checked its results against the shared
	// memory, and nothing reads the run's pages from here on. No defer — a
	// run that panics leaves its region to the collector.
	releaseRegion(rg)
	return res
}

// compose assembles the full simulation stack — space, engine, contexts,
// protocol, bodies — without starting it, so callers can either run it
// to completion (RunFaultTraced) or drive it in horizon slices
// (Session), and returns it with the Result the run will fill in and the
// region its page memory comes from, which the caller gives back
// (releaseRegion) once the run is harvested or abandoned. A nil engine is
// a split refusal, reported in the Result: the configuration cannot run,
// and neither engine nor region was taken.
func compose(params memsys.Params, pr proto.Protocol, prog proto.Program, tr trace.Tracer, fcfg *fault.Config) (*sim.Engine, *mem.Region, *Result) {
	run := stats.NewRun(prog.Name(), pr.Name(), params.NumProcs)
	res := &Result{Run: run, faults: fcfg}
	if sc, ok := prog.(proto.SplitChecker); ok {
		if res.SplitErr = sc.CheckSplit(params.NumProcs); res.SplitErr != nil {
			return nil, nil, res
		}
	}
	rg := takeRegion()
	space := mem.NewSpaceIn(rg, params.PageSize)
	prog.Init(space, params.NumProcs)
	if params.ShardHomes {
		// Rehome before Attach: protocols capture their home maps there.
		space.Rehome(func(pg int) int { return memsys.ShardAssign(pg, params.NumProcs) })
	}
	if nl, ok := pr.(proto.NumLocksProvider); ok {
		nl.SetNumLocks(prog.NumLocks())
	}

	eng := sim.New(params, run)
	spaceBytes := space.Pages() * params.PageSize
	if err := params.ValidateSpace(spaceBytes); err != nil {
		panic(fmt.Sprintf("harness: %s: %v", prog.Name(), err))
	}
	// Init has laid the space out and nothing allocates after it (the
	// per-processor frame tables are sized from it just below), so the
	// caches need tag slots for these lines only, and take them from the
	// run's region.
	tags := rg.Tags
	for _, p := range eng.Procs {
		p.Cache.Bound(spaceBytes)
		p.Cache.TagsFrom(tags)
	}
	if fcfg != nil {
		eng.EnableFaults(*fcfg)
	}
	// The one place a sink is wrapped for the emitting layers. It must be
	// in place before Attach so protocols can wire their per-lock
	// predictors off it.
	em := trace.To(tr)
	eng.Tracer = em
	eng.Net.Tracer = em

	ms, ok := pr.(memorySharer)
	shared := ok && ms.SharesMemory()
	var sharedMem *mem.ProcMem
	if shared {
		sharedMem = mem.NewProcMem(space, 0)
	}

	ctxs := make([]*proto.Ctx, params.NumProcs)
	for i := 0; i < params.NumProcs; i++ {
		m := sharedMem
		if !shared {
			m = mem.NewProcMem(space, i)
		}
		if em.On() && !m.Tracer.On() {
			p := eng.Procs[m.Proc()]
			m.Tracer = em
			m.Clock = func() uint64 { return p.Clock }
		}
		ctxs[i] = proto.NewCtx(eng.Procs[i], eng, m, space, pr, i, params.NumProcs)
	}
	pr.Attach(eng, space, ctxs)

	for i := 0; i < params.NumProcs; i++ {
		c := ctxs[i]
		eng.Spawn(i, func(p *sim.Proc) {
			prog.Body(c)
			pr.Done(c)
		})
	}
	return eng, rg, res
}
