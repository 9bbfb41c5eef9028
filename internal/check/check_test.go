package check

import (
	"slices"
	"strings"
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/harness"
)

// TestDifferentialSeeds is the property test behind cmd/fuzzdsm: for every
// seed, the workload must run deadlock-free under AEC, TreadMarks, Munin
// and the ideal protocol, verify internally, audit clean, and produce
// bit-identical checksums at every barrier phase. On failure the report is
// shrunk by seed replay so the log carries a minimal one-line repro.
func TestDifferentialSeeds(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), nil)
		if rep.Failed() {
			small, spent := ShrinkFault(rep.Workload, DefaultProtocols(), 32, nil)
			t.Fatalf("seed %d failed (shrunk in %d replays):\n%s", seed, spent, small)
		}
	}
}

// TestGenerateForcedProcsRoundTrips pins what makes a report's
// "reproduce: fuzzdsm -seed S -iters 1 -procs N" line reproduce: forcing the
// processor count a seed would have drawn anyway yields the same workload.
func TestGenerateForcedProcsRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		derived := Generate(seed, 0)
		if forced := Generate(seed, derived.Procs); forced != derived {
			t.Fatalf("seed %d: Generate(seed, %d) = %+v, but Generate(seed, 0) = %+v",
				seed, derived.Procs, forced, derived)
		}
	}
}

// TestDifferentialVariants runs a few seeds across the full protocol set,
// including AEC without LAP, the TreadMarks Lazy Hybrid and Munin+LAP.
func TestDifferentialVariants(t *testing.T) {
	seeds := []uint64{2, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if rep := RunWorkloadFault(Generate(seed, 0), harness.Kinds(), nil); rep.Failed() {
			t.Fatalf("seed %d failed:\n%s", seed, rep)
		}
	}
}

// TestDeterminism replays one seed twice and demands identical outcomes:
// the whole checker rests on a failure being reproducible from its seed.
func TestDeterminism(t *testing.T) {
	a := RunWorkloadFault(Generate(3, 0), DefaultProtocols(), nil)
	b := RunWorkloadFault(Generate(3, 0), DefaultProtocols(), nil)
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Final != rb.Final {
			t.Errorf("%s: final checksum not reproducible: %016x vs %016x",
				ra.Kind, ra.Final, rb.Final)
		}
		for p := range ra.Phases {
			if ra.Phases[p] != rb.Phases[p] {
				t.Errorf("%s: phase %d checksum not reproducible", ra.Kind, p)
			}
		}
	}
}

// TestMutationCaught injects an intentional diff-application bug into AEC
// (the last run of every diff is dropped and the apply event duplicated)
// and requires BOTH detection layers to fire: the differential runner must
// see AEC diverge, and the invariant auditor must flag the double apply.
func TestMutationCaught(t *testing.T) {
	aec.MutateDiffApply = true
	defer func() { aec.MutateDiffApply = false }()

	differential, invariant := false, false
	for seed := uint64(1); seed <= 6; seed++ {
		rep := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), nil)
		for _, run := range rep.Runs {
			if run.Kind != "AEC" {
				continue
			}
			if run.VerifyErr != nil {
				differential = true
			}
			if len(run.Violations) > 0 {
				invariant = true
			}
		}
		// Divergence can also surface as a cross-protocol checksum
		// mismatch rather than an in-program verification failure.
		for _, f := range rep.Failures {
			if strings.Contains(f, "checksum mismatch") {
				differential = true
			}
		}
		if differential && invariant {
			break
		}
	}
	if !differential {
		t.Error("injected diff-application bug not caught by the differential runner")
	}
	if !invariant {
		t.Error("injected diff-application bug not caught by any runtime invariant")
	}
}

// TestEveryMismatchReported: each way a comparison can fail has its line
// in the report — an unknown grant policy runs nothing; with AEC's
// diff-application bug injected under light faults, AEC's final and phase
// checksums differ from the fault-free ideal run's, and its phase
// checksums from the ideal run's under the same faults.
func TestEveryMismatchReported(t *testing.T) {
	w := Generate(5, 0)
	w.Policy = "bogus"
	if rep := RunWorkloadFault(w, DefaultProtocols(), nil); len(rep.Runs) != 0 || len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "bogus") {
		t.Errorf("unknown policy: %d runs, failures %q; want no run and the policy named", len(rep.Runs), rep.Failures)
	}

	aec.MutateDiffApply = true
	defer func() { aec.MutateDiffApply = false }()
	rep := RunWorkloadFault(Generate(5, 0), []harness.ProtocolKind{harness.ProtoIdeal, harness.ProtoAEC}, mustSpec(t, "light", 1005))
	for _, want := range []string{
		"AEC: verification failed",
		"AEC: faulted final",
		"AEC phase 0: faulted",
		"phase 0 checksum mismatch: ideal=",
	} {
		if !slices.ContainsFunc(rep.Failures, func(f string) bool { return strings.HasPrefix(f, want) }) {
			t.Errorf("no failure starts %q in:\n%s", want, rep)
		}
	}
}

// TestShrinkReduces checks the shrinker actually reduces a failing
// workload instead of returning the original shape.
func TestShrinkReduces(t *testing.T) {
	aec.MutateDiffApply = true
	defer func() { aec.MutateDiffApply = false }()

	var failing *Report
	for seed := uint64(1); seed <= 10; seed++ {
		if rep := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), nil); rep.Failed() {
			failing = rep
			break
		}
	}
	if failing == nil {
		t.Skip("mutation produced no failing seed in 1..10")
	}
	small, spent := ShrinkFault(failing.Workload, DefaultProtocols(), 40, nil)
	if !small.Failed() {
		t.Fatal("shrink returned a passing workload")
	}
	if spent < 2 {
		t.Fatalf("shrink spent only %d replays", spent)
	}
	w0, w1 := failing.Workload, small.Workload
	if w1 == w0 {
		t.Log("workload already minimal; shrink kept it")
	} else if w1.Procs > w0.Procs || w1.Cfg.Phases > w0.Cfg.Phases ||
		w1.Cfg.OpsPerPhase > w0.Cfg.OpsPerPhase || w1.Cfg.Locks > w0.Cfg.Locks {
		t.Fatalf("shrink grew the workload: %+v -> %+v", w0, w1)
	}
}
