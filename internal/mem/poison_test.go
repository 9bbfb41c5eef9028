package mem_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/munin"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// The ownership rule of transient diffs, from above the protocols: a diff
// made by MakeTransientDiff is recycled by its maker exactly once, after
// its last reader. With every recycled encoding overwritten with 0xA5 the
// moment it is handed back, a reader that came too late reads garbage — and
// then no checksum, statistic or rendered table below may change.
func TestTransientPoisoned(t *testing.T) {
	mem.Poison(t)
	t.Run("Checker", poisonedChecker)
	t.Run("TraceDoesNotPerturbCycles", poisonedTrace)
	t.Run("Goldens", poisonedGoldens)
	t.Run("MuninLAPRestricted", poisonedMuninLAP)
}

// poisonedChecker: fuzz seeds 1..100 clean, 1..40 under the light preset
// and 1..20 with fuzzdsm's crash schedules of crash seed 0 agree across all
// seven protocol kinds, auditor on.
func poisonedChecker(t *testing.T) {
	clean, light, crash := uint64(100), uint64(40), uint64(20)
	if testing.Short() {
		clean, light, crash = 12, 6, 4
	}
	kinds := harness.Kinds()
	fail := func(seed uint64, what string, rep *check.Report) {
		if rep.Failed() {
			t.Fatalf("seed %d, %s:\n%s", seed, what, rep)
		}
	}
	for seed := uint64(1); seed <= clean; seed++ {
		fail(seed, "clean", check.RunWorkloadFault(check.Generate(seed, 0), kinds, nil))
	}
	for seed := uint64(1); seed <= light; seed++ {
		fc, err := fault.ParseSpec("light")
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 7000 + seed
		fail(seed, "light faults", check.RunWorkloadFault(check.Generate(seed, 0), kinds, &fc))
	}
	for seed := uint64(1); seed <= crash; seed++ {
		w := check.Generate(seed, 0)
		fc := crashSchedule(seed, 0, w.Procs)
		fail(seed, fc.String(), check.RunWorkloadFault(w, kinds, &fc))
	}
}

// crashSchedule is the one or two node crashes cmd/fuzzdsm derives for a
// workload seed from -crash-seed, with no other faults.
func crashSchedule(seed, crashSeed uint64, nprocs int) fault.Config {
	fc := fault.Config{Seed: seed}
	rng := apps.NewRand(seed*0x9E3779B97F4A7C15 + crashSeed)
	at := uint64(0)
	for n := 1 + rng.Intn(2); n > 0; n-- {
		at += uint64(50_000 + rng.Intn(1_500_000))
		down := uint64(30_000 + rng.Intn(300_000))
		fc.Crashes = append(fc.Crashes, fault.Crash{Node: rng.Intn(nprocs), At: at, Down: down})
		at += down
	}
	return fc
}

// poisonedTrace: harness.TestTraceDoesNotPerturbCycles' grid — every
// protocol kind, clean, light and light with a crash, fifo and lease — runs
// to verified results, traced and untraced alike.
func poisonedTrace(t *testing.T) {
	cfg := apps.SynthConfig{Seed: 11, Locks: 3, CellsPerLock: 4, Phases: 3, OpsPerPhase: 5, PadWords: 24, Notices: true}
	schedules := []*fault.Config{nil}
	for _, spec := range []string{"light", fault.Presets["light"] + ",crash=0@1600000:200000"} {
		fc, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 5
		schedules = append(schedules, &fc)
	}
	for _, kind := range harness.Kinds() {
		for _, fc := range schedules {
			for _, policy := range []string{"fifo", "lease"} {
				params := memsys.Default().ForProcs(8)
				params.LockPolicy = policy
				plain := harness.RunFaultTraced(params, harness.NewProtocol(kind, 2), apps.NewSynth(cfg), nil, fc).Must()
				traced := harness.RunFaultTraced(params, harness.NewProtocol(kind, 2), apps.NewSynth(cfg), trace.NewRing(1<<10), fc).Must()
				if !reflect.DeepEqual(plain.Run, traced.Run) {
					t.Errorf("%s, faults %v, policy %s: %d cycles untraced, %d traced", kind, fc, policy, plain.Cycles(), traced.Cycles())
				}
			}
		}
	}
}

// poisonedGoldens: the harness's committed goldens — the key statistics of
// every application under AEC and TreadMarks, and the observed timeline —
// reproduce byte for byte, the key statistics on one job and on four.
func poisonedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("two golden renders")
	}
	const goldenScale = 0.1 // harness/golden_test.go
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "harness", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, jobs := range []int{1, 4} {
		e := harness.NewExperiments(goldenScale)
		e.Jobs = jobs
		var buf bytes.Buffer
		e.KeyStats(&buf)
		if !bytes.Equal(buf.Bytes(), golden("golden_short.txt")) {
			t.Errorf("key statistics at -jobs %d differ from the golden", jobs)
		}
	}
	var buf bytes.Buffer
	harness.NewExperiments(goldenScale).TimelineSweep(&buf, "Raytrace")
	if !bytes.Equal(buf.Bytes(), golden("golden_timeline.txt")) {
		t.Error("the timeline differs from the golden")
	}
}

// poisonedMuninLAP: munin.TestLAPRestrictsUpdateTraffic — Munin and
// Munin+LAP verify IS and Water-nsquared, and LAP's restricted flushes push
// fewer update bytes, their invalidated sharers refetching the pages.
func poisonedMuninLAP(t *testing.T) {
	for _, app := range []string{"IS", "Water-ns"} {
		updates := func(opt munin.Options) uint64 {
			res := harness.Run(memsys.Default(), munin.New(opt), apps.Registry[app](apps.Config{Scale: 0.1})).Must()
			return res.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdateBytesPushed })
		}
		if all, restricted := updates(munin.Options{}), updates(munin.Options{UseLAP: true, Ns: 2}); restricted >= all {
			t.Errorf("%s: LAP did not restrict Munin's update traffic: %d -> %d bytes", app, all, restricted)
		}
	}
}
