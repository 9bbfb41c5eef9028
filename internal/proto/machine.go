package proto

import (
	"fmt"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// memorySharer is implemented by protocols (the ideal one) under which all
// processors view a single physical memory.
type memorySharer interface {
	SharesMemory() bool
}

// Machine is an assembled simulation that has not started: the engine,
// with every processor's body spawned, and the contexts the bodies run on.
// E.Run holds its statistics.
type Machine struct {
	E    *sim.Engine
	Ctxs []*Ctx
}

// Assemble builds the machine that runs prog under pr: the shared space
// from region rg (nil is the heap), laid out by prog.Init; the engine,
// with fault injection armed when fcfg is non-nil and tr wired into every
// emitting layer when it is non-nil; a memory and a context per processor;
// pr attached; and one body per processor, prog.Body followed by pr.Done.
// It is the one place a run is put together: the harness's runs and
// sessions, and every scripted test machine, come from here. A nil tracer
// and a nil fcfg leave the emitters off and the injector absent.
func Assemble(params memsys.Params, pr Protocol, prog Program, tr trace.Tracer, fcfg *fault.Config, rg *mem.Region) *Machine {
	space := mem.NewSpaceIn(rg, params.PageSize)
	prog.Init(space, params.NumProcs)
	if params.ShardHomes {
		// Rehome before Attach: protocols capture their home maps there.
		space.Rehome(func(pg int) int { return memsys.ShardAssign(pg, params.NumProcs) })
	}
	if nl, ok := pr.(NumLocksProvider); ok {
		nl.SetNumLocks(prog.NumLocks())
	}

	eng := sim.New(params, stats.NewRun(prog.Name(), pr.Name(), params.NumProcs))
	spaceBytes := space.Pages() * params.PageSize
	if err := params.ValidateSpace(spaceBytes); err != nil {
		panic(fmt.Sprintf("proto: %s: %v", prog.Name(), err))
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

	ctxs := make([]*Ctx, params.NumProcs)
	for i := range ctxs {
		m := sharedMem
		if !shared {
			m = mem.NewProcMem(space, i)
		}
		if em.On() && !m.Tracer.On() {
			p := eng.Procs[m.Proc()]
			m.Tracer = em
			m.Clock = func() uint64 { return p.Clock }
		}
		ctxs[i] = NewCtx(eng.Procs[i], eng, m, space, pr, i, params.NumProcs)
	}
	pr.Attach(eng, space, ctxs)

	for i, c := range ctxs {
		eng.Spawn(i, func(*sim.Proc) {
			prog.Body(c)
			pr.Done(c)
		})
	}
	return &Machine{E: eng, Ctxs: ctxs}
}

// Run runs the machine to the end and reports whether it deadlocked.
func (m *Machine) Run() (deadlocked bool) {
	m.E.Start()
	return m.E.Deadlocked
}
