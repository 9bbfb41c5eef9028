package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// emptyFreeList drops every idle arena, so the next run starts on a new
// region and a new engine — the state of a process's first run — and
// returns what was dropped to the free list when the test ends.
func emptyFreeList(t testing.TB) {
	arenas.mu.Lock()
	was := arenas.idle
	arenas.idle = nil
	arenas.mu.Unlock()
	t.Cleanup(func() {
		arenas.mu.Lock()
		arenas.idle = append(arenas.idle, was...)
		arenas.mu.Unlock()
	})
}

func idleArenas() []*proto.Arena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	return append([]*proto.Arena(nil), arenas.idle...)
}

// TestLifetimePoisoned reruns the tests that compare one run against
// another — traced against untraced, an observed run against runs observed
// at one mark, one job against eight, a sequence of runs through one arena
// against runs on new engines — with every region and engine poisoned the
// moment its run is harvested: nothing they compare may have been read from
// a finished run's memory or engine.
func TestLifetimePoisoned(t *testing.T) {
	mem.Poison(t)
	t.Run("TraceDoesNotPerturbCycles", TestTraceDoesNotPerturbCycles)
	t.Run("TimelineSnapshotsMatchOneMarkRuns", TestTimelineSnapshotsMatchOneMarkRuns)
	t.Run("ParallelOutputIdentical", TestParallelOutputIdentical)
	t.Run("RecyclingChangesNoRun", TestRecyclingChangesNoRun)
}

// TestRecyclingChangesNoRun: runs made one after another through one
// arena — 16, 2, 9 and 16 processors, the engine renewed larger, smaller
// and to the size it had, a program that fails its verification in the
// middle, then a shorter program on 64 processors of the scaling
// architecture (a radix-16 combining tree, sharded homes and managers),
// whose interior nodes keep barrier scratch and whose region keeps
// TreadMarks' interval clocks — each measure and trace exactly what they
// do on a new engine from the heap (proto.Assemble with a nil arena),
// under AEC, TreadMarks, Munin and ideal, clean, under the light preset
// and, up to 16 processors, with a crash (which the ideal protocol's runs
// end before).
func TestRecyclingChangesNoRun(t *testing.T) {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	light.Seed = 31
	crash := light
	crash.Crashes = []fault.Crash{{Node: 1, At: 40000, Down: 60000}}
	schedules := []*fault.Config{nil, &light, &crash}
	synth := apps.SynthConfig{Seed: 7, Locks: 3, CellsPerLock: 4, Phases: 3, OpsPerPhase: 3, PadWords: 300}
	a := &proto.Arena{Region: new(mem.Region)}
	var eng *sim.Engine
	for _, kind := range []ProtocolKind{ProtoAEC, ProtoTM, ProtoMunin, ProtoIdeal} {
		for _, fcfg := range schedules {
			for i, n := range []int{16, 2, 9, 16, 64} {
				if n == 64 && fcfg == &crash {
					continue
				}
				params, cfg := memsys.Default().ForProcs(n), synth
				if n > 16 {
					params.BarrierRadix, params.ShardHomes, params.ShardManagers = 16, true, true
					cfg.Phases, cfg.OpsPerPhase = 2, 1
				}
				prog := func() proto.Program {
					if i == 2 {
						return &brokenProgram{Program: apps.NewSynth(cfg)}
					}
					return apps.NewSynth(cfg)
				}
				what := fmt.Sprintf("%s, faults %v, run %d on %d processors", kind, fcfg, i, n)
				want := assembled(t, what, nil, kind, params, prog(), fcfg)
				got := assembled(t, what, a, kind, params, prog(), fcfg)
				if eng == nil {
					eng = a.Engine
				}
				switch {
				case a.Engine != eng:
					t.Fatalf("%s: the arena's engine was replaced", what)
				case !reflect.DeepEqual(got.run, want.run):
					t.Errorf("%s: %d cycles through the arena, %d on a new engine", what, got.run.Cycles, want.run.Cycles)
				case got.trace != want.trace:
					t.Errorf("%s: the trace through the arena differs from the one on a new engine", what)
				case got.err != want.err || (i == 2) != (got.err != ""):
					t.Errorf("%s: verification says %q through the arena, %q on a new engine", what, got.err, want.err)
				case fcfg == &crash && kind != ProtoIdeal && got.run.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes }) != 1:
					t.Errorf("%s: the crash did not happen", what)
				}
			}
		}
	}
}

// assembledRun is what TestRecyclingChangesNoRun compares of one run.
type assembledRun struct {
	run   *stats.Run
	trace string // the JSONL trace
	err   string // the program's verdict
}

// assembled runs prog through proto.Assemble on arena a (nil: the heap and
// a new engine), traced to JSONL, and returns what the run measured.
func assembled(t *testing.T, what string, a *proto.Arena, kind ProtocolKind, params memsys.Params, prog proto.Program, fcfg *fault.Config) assembledRun {
	var buf bytes.Buffer
	tr := trace.NewJSONL(&buf)
	if a != nil {
		a.Region.Acquire()
		defer a.Region.Release()
	}
	m := proto.Assemble(params, NewProtocol(kind, 2), prog, tr, fcfg, a)
	if m.Run() {
		t.Fatalf("%s: deadlocked", what)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	out := assembledRun{run: m.E.Run, trace: buf.String()}
	if err := prog.Err(); err != nil {
		out.err = err.Error()
	}
	if mem.Poisoned && a != nil {
		a.Engine.Release()
		a.Engine.Poison()
	}
	return out
}

// TestSecondRunMakesNothing: of two identical runs the second draws every
// frame, twin, snapshot, image byte and tag word from what the first left
// in the region, and runs on the engine the first left, every part of it
// — processors, caches, TLBs, buses, mesh, pooled records — the first
// one's, under every protocol kind.
func TestSecondRunMakesNothing(t *testing.T) {
	cfg := apps.Config{Scale: 0.05}
	for _, kind := range Kinds() {
		emptyFreeList(t)
		// engineParts is the engine's storage by identity, and what its
		// pools have made and what it keeps.
		type engineParts struct {
			parts      []any
			made, size int
		}
		run := func() (mem.RegionStats, engineParts) {
			RunFaultTraced(memsys.Default(), NewProtocol(kind, 2), appsFactory("IS")(cfg), nil, nil).Must()
			idle := idleArenas()
			if len(idle) != 1 || idle[0].Engine == nil {
				t.Fatalf("%s: %d arenas idle after a run on an empty free list, want 1 with its engine", kind, len(idle))
			}
			e := idle[0].Engine
			parts := engineParts{parts: []any{e, e.Net}, made: e.Made(), size: e.Size()}
			for _, p := range e.Procs[:cap(e.Procs)] {
				parts.parts = append(parts.parts, p, p.Cache, p.TLB, p.MemBus, p.IOBus)
			}
			return idle[0].Region.Stats(), parts
		}
		first, firstEngine := run()
		second, secondEngine := run()
		if first.BytesMade == 0 || first.TagsMade == 0 || first.BytesHanded == 0 || first.TagsHanded == 0 {
			t.Fatalf("%s: the first run drew nothing from its region: %+v", kind, first)
		}
		if second.BytesMade != first.BytesMade || second.TagsMade != first.TagsMade {
			t.Errorf("%s: the second run made %d bytes and %d tag words", kind,
				second.BytesMade-first.BytesMade, second.TagsMade-first.TagsMade)
		}
		if second.BytesHanded != 2*first.BytesHanded || second.TagsHanded != 2*first.TagsHanded || second.Runs != 2 {
			t.Errorf("%s: two identical runs drew different amounts: %+v then %+v", kind, first, second)
		}
		if firstEngine.made != secondEngine.made || firstEngine.size != secondEngine.size ||
			!slices.Equal(firstEngine.parts, secondEngine.parts) {
			t.Errorf("%s: the second run made engine parts: %d pooled records then %d, %d bytes kept then %d, same engine, mesh, processors and models %v",
				kind, firstEngine.made, secondEngine.made, firstEngine.size, secondEngine.size, slices.Equal(firstEngine.parts, secondEngine.parts))
		}
	}
}

// TestDirtyRegionBetweenPrograms: a program run in the region a different
// program just left — larger or smaller, its pages and tags still there —
// measures exactly what it measures in a new region.
func TestDirtyRegionBetweenPrograms(t *testing.T) {
	app := func(name string) func() proto.Program {
		return func() proto.Program { return appsFactory(name)(apps.Config{Scale: 0.05}) }
	}
	synth := func(locks, padWords int) func() proto.Program {
		cfg := apps.SynthConfig{Seed: 5, Locks: locks, CellsPerLock: 4, Phases: 2, OpsPerPhase: 3, PadWords: padWords}
		return func() proto.Program { return apps.NewSynth(cfg) }
	}
	pairs := []struct {
		name          string
		first, second func() proto.Program
	}{
		{"Ocean then IS", app("Ocean"), app("IS")},
		{"IS then Ocean", app("IS"), app("Ocean")},
		// 100 x (1 + 6) + 1 = 701 pages, then 15 + 1 = 16.
		{"16-page Synth after a 701-page one", synth(100, 6*4096/8), synth(15, 0)},
	}
	for _, kind := range []ProtocolKind{ProtoAEC, ProtoTM, ProtoMunin, ProtoIdeal} {
		for _, pair := range pairs {
			run := func(prog proto.Program) *stats.Run {
				return RunFaultTraced(memsys.Default(), NewProtocol(kind, 2), prog, nil, nil).Must().Run
			}
			emptyFreeList(t)
			alone := run(pair.second())
			emptyFreeList(t)
			run(pair.first())
			if after := run(pair.second()); !reflect.DeepEqual(alone, after) {
				t.Errorf("%s, %s: %d cycles alone, %d in the first program's region", kind, pair.name, alone.Cycles, after.Cycles)
			}
			if idle := idleArenas(); len(idle) != 1 || idle[0].Region.Stats().Runs != 2 {
				t.Fatalf("%s, %s: the two runs did not share one region", kind, pair.name)
			}
		}
	}
}

// TestRunRegionReturnsOnce: a run's arena — region and engine, released —
// goes back to the free list once, when the run is harvested, observed or
// not and failed verification or not (the caller's Must comes after); not
// at all when a body panics.
func TestRunRegionReturnsOnce(t *testing.T) {
	e := NewExperiments(0.05)
	is := func() proto.Program { return appsFactory("IS")(apps.Config{Scale: e.Scale}) }
	for _, marks := range [][]sim.Time{nil, {100000}} {
		emptyFreeList(t)
		res, _ := run(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is()}, nil, nil, marks)
		idle := idleArenas()
		if res.VerifyErr == nil || len(idle) != 1 || idle[0].Region.Stats().Runs != 1 || idle[0].Engine == nil {
			t.Fatalf("marks %v, a run that fails verification: err %v, %d arenas idle; want the error and the arena back once, with its engine",
				marks, res.VerifyErr, len(idle))
		}
		if eng := idle[0].Engine; eng.Run != nil || len(eng.Procs) != 0 {
			t.Errorf("marks %v: the idle engine keeps the run's statistics or %d processors", marks, len(eng.Procs))
		}
		// The engine that came back is the one the next run takes, and it
		// comes back once more.
		kept := idle[0].Engine
		run(e.Params, NewProtocol(ProtoAEC, 2), is(), nil, nil, marks)
		if idle := idleArenas(); len(idle) != 1 || idle[0].Engine != kept || idle[0].Region.Stats().Runs != 2 {
			t.Errorf("marks %v: the next run did not take and return the same arena and engine", marks)
		}
	}
	emptyFreeList(t)
	panicMessage(func() {
		RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is(), panics: true}, nil, nil)
	})
	if n := len(idleArenas()); n != 0 {
		t.Errorf("a run whose body panicked put its arena back on the free list")
	}
	// A panic on an arena's second run loses the engine too: the next run
	// builds a new one.
	emptyFreeList(t)
	RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), is(), nil, nil).Must()
	before := idleArenas()[0].Engine
	panicMessage(func() {
		RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is(), panics: true}, nil, nil)
	})
	if n := len(idleArenas()); n != 0 {
		t.Fatalf("a run whose body panicked put its arena back on the free list")
	}
	RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), is(), nil, nil).Must()
	if after := idleArenas(); len(after) != 1 || after[0].Engine == nil || after[0].Engine == before {
		t.Errorf("the engine of a run that panicked came back")
	}
}

// TestIdleArenaBounded: what an idle arena keeps between runs is bounded
// by two constants, regionKeepBytes for its region (Region.Trim) and
// engineKeepBytes for its engine, which goes to the collector when it
// holds more. Each processor writes its own word of a page and everyone
// meets at a barrier, on 16 and 64 processors clean and under the light
// preset; on 1024 processors, clean, they only meet. Every one of these
// engines is kept. Writing the page on 1024 processors has 224 201
// messages in flight at once, and its 32.5 MB engine is dropped
// (docs/PERFORMANCE.md, round sixteen); so is, here, the engine of a
// faulted 1024-processor ring, whose transport keeps a row of 1024 pair
// windows for every node that sent.
func TestIdleArenaBounded(t *testing.T) {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	write := func(c *proto.Ctx) {
		c.WriteI64(mem.Addr(8*c.ID), int64(c.ID))
		c.Barrier()
	}
	for _, row := range []struct {
		n     int
		fcfg  *fault.Config
		write bool
	}{
		{16, nil, true}, {16, &light, true},
		{64, nil, true}, {64, &light, true},
		{1024, nil, false},
	} {
		p := memsys.Default().ForProcs(row.n)
		if row.n > 16 {
			p.BarrierRadix = 16
		}
		prog := proto.Script{Homes: make([]int, 1), Do: func(c *proto.Ctx) { c.Barrier() }}
		if row.write {
			prog.Do = write
		}
		emptyFreeList(t)
		RunFaultTraced(p, NewProtocol(ProtoAEC, 2), prog, nil, row.fcfg).Must()
		idle := idleArenas()
		if len(idle) != 1 || idle[0].Engine == nil {
			t.Fatalf("%d processors, faults %v: the arena did not come back with its engine", row.n, row.fcfg)
		}
		region, engine := idle[0].Region.Size(), idle[0].Engine.Size()
		t.Logf("%4d processors, faults %v: an idle arena keeps a %d-byte region and a %d-byte engine",
			row.n, row.fcfg != nil, region, engine)
		if region > regionKeepBytes || engine > engineKeepBytes {
			t.Errorf("%d processors: an idle arena keeps %d region bytes and %d engine bytes", row.n, region, engine)
		}
	}

	// Past the bound: 1024 processors under the light preset each send
	// their neighbour one message, and every sender's transport row holds
	// 1024 pair windows. The arena comes back without the engine.
	n := 1024
	eng := sim.New(memsys.Default().ForProcs(n), stats.NewRun("ring", "none", n))
	eng.EnableFaults(light)
	got := make([]bool, n)
	for i := 0; i < n; i++ {
		eng.Spawn(i, func(p *sim.Proc) {
			eng.SendFrom(p, stats.Synch, (i+1)%n, 0, 8, nil, func(s *sim.Svc, m *sim.Msg) {
				got[m.To] = true
				s.Wake(eng.Procs[m.To])
			})
			p.WaitUntil(func() bool { return got[i] }, stats.Synch)
		})
	}
	eng.Start()
	emptyFreeList(t)
	a := takeArena()
	a.Engine = eng
	size := eng.Size()
	releaseArena(a)
	if idle := idleArenas(); size <= engineKeepBytes || len(idle) != 1 || idle[0].Engine != nil {
		t.Errorf("an idle arena keeps the %d-byte engine of a faulted 1024-processor ring", size)
	}
}

// brokenProgram is a program that fails its verification, or panics in
// processor 0's body once the real body is done.
type brokenProgram struct {
	proto.Program
	panics bool
}

func (b *brokenProgram) Err() error { return fmt.Errorf("broken on purpose") }

func (b *brokenProgram) Body(c *proto.Ctx) {
	b.Program.Body(c)
	if b.panics && c.ID == 0 {
		panic("broken on purpose")
	}
}

// BenchmarkRunRecycled is one 16-processor IS run at scale 0.05 through
// RunFaultTraced per iteration: from the second on, every page and tag
// comes from the region the one before gave back, so B/op is what a run
// costs besides its page memory.
func BenchmarkRunRecycled(b *testing.B) {
	cfg := apps.Config{Scale: 0.05}
	b.ReportAllocs()
	for b.Loop() {
		RunFaultTraced(memsys.Default(), NewProtocol(ProtoAEC, 2), appsFactory("IS")(cfg), nil, nil).Must()
	}
}
