package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// emptyFreeList drops every idle region, so the next run starts on a new
// one — the state of a process's first run — and returns what was dropped
// to the free list when the test ends.
func emptyFreeList(t testing.TB) {
	regions.mu.Lock()
	was := regions.idle
	regions.idle = nil
	regions.mu.Unlock()
	t.Cleanup(func() {
		regions.mu.Lock()
		regions.idle = append(regions.idle, was...)
		regions.mu.Unlock()
	})
}

func idleRegions() []*mem.Region {
	regions.mu.Lock()
	defer regions.mu.Unlock()
	return append([]*mem.Region(nil), regions.idle...)
}

// TestLifetimePoisoned reruns the tests that compare one run against
// another — traced against untraced, a warm session against cold replays,
// one job against eight — with every region poisoned the moment its run
// is harvested: nothing they compare may have been read from a finished
// run's memory.
func TestLifetimePoisoned(t *testing.T) {
	PoisonReleased(t)
	t.Run("TraceDoesNotPerturbCycles", TestTraceDoesNotPerturbCycles)
	t.Run("TimelineWarmMatchesCold", TestTimelineWarmMatchesCold)
	t.Run("ParallelOutputIdentical", TestParallelOutputIdentical)
}

// TestSecondRunMakesNothing: of two identical runs the second draws every
// frame, twin, snapshot, image byte and tag word from what the first left
// in the region, under every protocol kind.
func TestSecondRunMakesNothing(t *testing.T) {
	cfg := apps.Config{Scale: 0.05}
	for _, kind := range Kinds() {
		emptyFreeList(t)
		run := func() mem.RegionStats {
			RunFaultTraced(memsys.Default(), NewProtocol(kind, 2), appsFactory("IS")(cfg), nil, nil).Must()
			idle := idleRegions()
			if len(idle) != 1 {
				t.Fatalf("%s: %d regions idle after a run on an empty free list, want 1", kind, len(idle))
			}
			return idle[0].Stats()
		}
		first, second := run(), run()
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
			if idle := idleRegions(); len(idle) != 1 || idle[0].Stats().Runs != 2 {
				t.Fatalf("%s, %s: the two runs did not share one region", kind, pair.name)
			}
		}
	}
}

// TestSessionRegionReturnsOnce: however a session ends — closed before it
// starts, closed part-way, finished and then closed, closed twice — its
// region comes back to the free list exactly once, and only when it ends;
// a session whose run panics keeps its region off the list for good.
func TestSessionRegionReturnsOnce(t *testing.T) {
	e := NewExperiments(0.05)
	session := func(prog proto.Program) *Session {
		emptyFreeList(t)
		s := NewSession(e.Params, NewProtocol(ProtoAEC, 2), prog)
		if n := len(idleRegions()); n != 0 {
			t.Fatalf("%d regions idle while a session holds the only one", n)
		}
		return s
	}
	is := func() proto.Program { return appsFactory("IS")(apps.Config{Scale: e.Scale}) }
	ends := map[string]func(s *Session){
		"closed before start": func(s *Session) { s.Close() },
		"closed mid-run": func(s *Session) {
			if !s.RunUntil(100000) {
				t.Fatal("IS should still be running at cycle 100000")
			}
			if n := len(idleRegions()); n != 0 {
				t.Fatalf("a paused session gave its region back (%d idle)", n)
			}
			s.Close()
		},
		"finished": func(s *Session) { s.Finish() },
		"finished mid-run": func(s *Session) {
			s.RunUntil(100000)
			s.Finish()
		},
	}
	for name, end := range ends {
		s := session(is())
		end(s)
		held := idleRegions()
		s.Close()
		s.Close()
		if after := idleRegions(); len(held) != 1 || len(after) != 1 || after[0] != held[0] {
			t.Errorf("%s: %d regions idle when the session ended, %d after two more Closes; want the same one", name, len(held), len(after))
		} else if got := after[0].Stats().Runs; got != 1 {
			t.Errorf("%s: the region was released %d times", name, got)
		}
	}

	for _, name := range []string{"verification failure", "body panic"} {
		prog := &brokenProgram{Program: is(), panics: name == "body panic"}
		s := session(prog)
		if msg := panicMessage(func() { s.Finish() }); !strings.Contains(msg, "broken on purpose") {
			t.Errorf("%s: Finish panicked with %q, want the program's failure", name, msg)
		}
		s.Close()
		if n := len(idleRegions()); n != 0 {
			t.Errorf("%s: a run that panicked put its region back on the free list", name)
		}
	}

	// RunFaultTraced itself: released when the run is harvested, failed
	// verification or not (the caller's Must comes after); not at all
	// when a body panics.
	emptyFreeList(t)
	res := RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is()}, nil, nil)
	if res.VerifyErr == nil || len(idleRegions()) != 1 {
		t.Errorf("a run that fails verification: err %v, %d regions idle; want the error and the region back", res.VerifyErr, len(idleRegions()))
	}
	emptyFreeList(t)
	panicMessage(func() {
		RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is(), panics: true}, nil, nil)
	})
	if n := len(idleRegions()); n != 0 {
		t.Errorf("a run whose body panicked put its region back on the free list")
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
