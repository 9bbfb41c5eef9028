package check

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/stats"
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
		for _, d := range mismatches(nil, "first", &a.Runs[i], "replay", &b.Runs[i]) {
			t.Errorf("%s not reproducible: %s", a.Runs[i].Kind, d)
		}
	}
}

// TestEveryMismatchReported: each way a comparison can fail has its line
// in the report, in the judge's order — each run's Err and violations,
// then the fault-free baseline's Err and the runs against it,
// then against the first run — and each way policies can disagree has its
// line too. An unknown grant policy runs nothing and is the one failure.
func TestEveryMismatchReported(t *testing.T) {
	w := Generate(5, 0)
	w.Policy = "bogus"
	if rep := RunWorkloadFault(w, DefaultProtocols(), nil); len(rep.Runs) != 0 || len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "bogus") {
		t.Errorf("unknown policy: %d runs, failures %q; want no run and the policy named", len(rep.Runs), rep.Failures)
	}

	run := func(k harness.ProtocolKind, final uint64, phases ...uint64) ProtocolRun {
		return ProtocolRun{Kind: k, Final: final, Phases: phases}
	}
	ideal, aec := run(harness.ProtoIdeal, 9, 1, 2), run(harness.ProtoAEC, 9, 1, 2)
	verdict := func(r harness.Result) error {
		r.Run = stats.NewRun("synth", "AEC", 4)
		return r.Err()
	}
	dead, wrong, flagged := aec, aec, aec
	dead.Err = verdict(harness.Result{Deadlocked: true})
	wrong.Err = verdict(harness.Result{VerifyErr: errors.New("slot 1 = 7, want 8")})
	flagged.Violations = []string{"diff 3 applied twice"}
	broken := run(harness.ProtoAEC, 8, 1, 2)
	broken.Err, broken.Violations = wrong.Err, flagged.Violations
	policy := func(name string, final uint64, phases ...uint64) *Report {
		return &Report{Workload: Workload{Policy: name}, Runs: []ProtocolRun{run(harness.ProtoAEC, final, phases...)}}
	}
	for _, tc := range []struct {
		name     string
		runs     []ProtocolRun
		base     *ProtocolRun
		policies []*Report
		want     []string
	}{
		{name: "agree", runs: []ProtocolRun{ideal, aec}, base: &ideal},
		{name: "deadlock", runs: []ProtocolRun{ideal, dead}, want: []string{"AEC: synth under AEC on 4 processors deadlocked"}},
		{name: "verification", runs: []ProtocolRun{ideal, wrong}, want: []string{"AEC: synth under AEC on 4 processors failed verification: slot 1 = 7, want 8"}},
		{name: "violation", runs: []ProtocolRun{ideal, flagged}, want: []string{"AEC: invariant violated: diff 3 applied twice"}},
		{name: "fault-free verdict", runs: []ProtocolRun{ideal, aec}, base: &dead,
			want: []string{"fault-free AEC: synth under AEC on 4 processors deadlocked"}},
		{name: "fault-free final", runs: []ProtocolRun{run(harness.ProtoIdeal, 8, 1, 2), run(harness.ProtoAEC, 8, 1, 2)}, base: &ideal,
			want: []string{
				"final checksum mismatch: fault-free=0000000000000009 vs ideal=0000000000000008",
				"final checksum mismatch: fault-free=0000000000000009 vs AEC=0000000000000008",
			}},
		{name: "fault-free phase count", runs: []ProtocolRun{run(harness.ProtoIdeal, 9, 1), run(harness.ProtoAEC, 9, 1)}, base: &ideal,
			want: []string{"phase count mismatch: fault-free=2 vs ideal=1", "phase count mismatch: fault-free=2 vs AEC=1"}},
		{name: "fault-free phase", runs: []ProtocolRun{run(harness.ProtoIdeal, 9, 1, 3), run(harness.ProtoAEC, 9, 1, 3)}, base: &ideal,
			want: []string{
				"phase 1 checksum mismatch: fault-free=0000000000000002 vs ideal=0000000000000003",
				"phase 1 checksum mismatch: fault-free=0000000000000002 vs AEC=0000000000000003",
			}},
		{name: "cross-protocol final", runs: []ProtocolRun{ideal, run(harness.ProtoAEC, 8, 1, 2)},
			want: []string{"final checksum mismatch: ideal=0000000000000009 vs AEC=0000000000000008"}},
		{name: "cross-protocol phase count", runs: []ProtocolRun{ideal, run(harness.ProtoAEC, 9, 1, 2, 3)},
			want: []string{"phase count mismatch: ideal=2 vs AEC=3"}},
		{name: "cross-protocol phase", runs: []ProtocolRun{ideal, run(harness.ProtoAEC, 9, 0, 2)},
			want: []string{"phase 0 checksum mismatch: ideal=0000000000000001 vs AEC=0000000000000000"}},
		{name: "in order", runs: []ProtocolRun{ideal, broken}, base: &ideal,
			want: []string{
				"AEC: synth under AEC on 4 processors failed verification: slot 1 = 7, want 8",
				"AEC: invariant violated: diff 3 applied twice",
				"final checksum mismatch: fault-free=0000000000000009 vs AEC=0000000000000008",
				"final checksum mismatch: ideal=0000000000000009 vs AEC=0000000000000008",
			}},
		{name: "cross-policy final", policies: []*Report{policy("", 9, 1, 2), policy("mcs", 8, 1, 2)},
			want: []string{"final checksum mismatch: fifo=0000000000000009 vs mcs=0000000000000008"}},
		{name: "cross-policy phase count", policies: []*Report{policy("", 9, 1, 2), policy("mcs", 9, 1)},
			want: []string{"phase count mismatch: fifo=2 vs mcs=1"}},
		{name: "cross-policy phase", policies: []*Report{policy("", 9, 1, 2), policy("mcs", 9, 1, 3)},
			want: []string{"phase 1 checksum mismatch: fifo=0000000000000002 vs mcs=0000000000000003"}},
	} {
		got := judge(tc.runs, tc.base)
		if tc.policies != nil {
			got = CrossPolicy(tc.policies)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: failures\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}

// TestJudgeDoesNotAllocate: judging runs that all agree, with and without
// a fault-free baseline and across policies, allocates nothing — the
// checker judges hundreds of workloads a second.
func TestJudgeDoesNotAllocate(t *testing.T) {
	var runs []ProtocolRun
	var reps []*Report
	for _, k := range harness.Kinds() {
		runs = append(runs, ProtocolRun{Kind: k, Final: 9, Phases: []uint64{1, 2, 3}})
		reps = append(reps, &Report{Workload: Workload{Policy: string(k)}, Runs: runs[len(runs)-1:]})
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(judge(runs, nil))+len(judge(runs, &runs[0]))+len(CrossPolicy(reps)) != 0 {
			t.Fatal("agreeing runs judged as failing")
		}
	}); n != 0 {
		t.Errorf("judging agreeing runs allocates %v times, want 0", n)
	}
}

// TestShrinkReduces: a workload that fails at every shape (its grant
// policy does not parse, so nothing runs) shrinks to the floor of every
// dimension; a passing workload costs the one replay that judged it; and a
// budget of two stops after one reduction.
func TestShrinkReduces(t *testing.T) {
	w := Workload{Seed: 1, Procs: 16, PageSize: 4096, Policy: "bogus", Cfg: apps.SynthConfig{
		Seed: 1, Locks: 6, CellsPerLock: 8, Phases: 4, OpsPerPhase: 8, PadWords: 100, Notices: true,
	}}
	floor := w
	floor.Procs, floor.Cfg.Locks, floor.Cfg.CellsPerLock, floor.Cfg.Phases = 2, 1, 2, 1
	floor.Cfg.OpsPerPhase, floor.Cfg.PadWords, floor.Cfg.Notices = 1, 0, false
	small, spent := ShrinkFault(w, DefaultProtocols(), 100, nil)
	if !small.Failed() || small.Workload != floor {
		t.Errorf("shrunk in %d replays to %+v (failed %v), want %+v", spent, small.Workload, small.Failed(), floor)
	}

	pass := Generate(3, 4)
	if rep, spent := ShrinkFault(pass, DefaultProtocols(), 100, nil); rep.Failed() || rep.Workload != pass || spent != 1 {
		t.Errorf("passing workload: failed %v after %d replays, workload %+v; want it back after 1", rep.Failed(), spent, rep.Workload)
	}

	if rep, spent := ShrinkFault(w, DefaultProtocols(), 2, nil); spent != 2 || rep.Workload != reductions(w)[0] {
		t.Errorf("budget 2: %d replays, workload %+v; want 2 and %+v", spent, rep.Workload, reductions(w)[0])
	}
}
