package check

import (
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/stats"
)

func mustSpec(t *testing.T, spec string, seed uint64) *fault.Config {
	t.Helper()
	c, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Seed = seed
	return &c
}

// TestFaultedProtocolsAgree is the hardened differential property: under
// an injected fault schedule, AEC, TreadMarks, Munin and the ideal
// protocol must still verify, audit clean, and produce bit-identical
// barrier-phase checksums. The nightly fuzz job extends this to hundreds
// of seeds; see .github/workflows/ci.yml.
func TestFaultedProtocolsAgree(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		fc := mustSpec(t, "light", 1000+seed)
		rep := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), fc)
		if rep.Failed() {
			small, spent := ShrinkFault(rep.Workload, DefaultProtocols(), 32, fc)
			t.Fatalf("seed %d failed under faults (shrunk in %d replays):\n%s", seed, spent, small)
		}
	}
}

// TestHeavyFaultsStillAgree pushes the full protocol set through the
// heavy preset on a few seeds.
func TestHeavyFaultsStillAgree(t *testing.T) {
	seeds := []uint64{2, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if rep := RunWorkloadFault(Generate(seed, 0), harness.Kinds(), mustSpec(t, "heavy", 55+seed)); rep.Failed() {
			t.Fatalf("seed %d failed under heavy faults:\n%s", seed, rep)
		}
	}
}

// TestFaultedChecksumsMatchFaultFree: faults may change timing, but never
// results — every protocol's final and per-phase checksums under
// injection must equal the fault-free run of the same workload.
func TestFaultedChecksumsMatchFaultFree(t *testing.T) {
	seeds := []uint64{3, 9}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		clean := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), nil)
		faulty := RunWorkloadFault(Generate(seed, 0), DefaultProtocols(), mustSpec(t, "heavy", seed))
		if clean.Failed() || faulty.Failed() {
			t.Fatalf("seed %d: unexpected failure\nclean:\n%s\nfaulty:\n%s", seed, clean, faulty)
		}
		for i := range clean.Runs {
			for _, d := range mismatches(nil, "fault-free", &clean.Runs[i], "faulted", &faulty.Runs[i]) {
				t.Errorf("seed %d %s: %s", seed, clean.Runs[i].Kind, d)
			}
		}
	}
}

// TestFaultedRunsDeterministic: one (workload seed, fault seed) pair is
// one run — replaying it reproduces every checksum exactly.
func TestFaultedRunsDeterministic(t *testing.T) {
	fc := mustSpec(t, "heavy", 17)
	a := RunWorkloadFault(Generate(5, 0), DefaultProtocols(), fc)
	b := RunWorkloadFault(Generate(5, 0), DefaultProtocols(), fc)
	if a.Failed() || b.Failed() {
		t.Fatalf("unexpected failure:\n%s\n%s", a, b)
	}
	for i := range a.Runs {
		for _, d := range mismatches(nil, "first", &a.Runs[i], "replay", &b.Runs[i]) {
			t.Errorf("%s replay diverged: %s", a.Runs[i].Kind, d)
		}
	}
}

// TestCrashSchedulesAgree is the state-destroying differential property:
// node crashes (primary-backup lock-manager failover plus orphan-page
// invalidation, docs/ROBUSTNESS.md) and network partitions must leave
// every protocol's barrier-phase checksums bit-identical to the
// fault-free run. RunWorkloadFault's Baseline comparison enforces the
// fault-free half directly; the cross-protocol comparison the agreement
// half.
func TestCrashSchedulesAgree(t *testing.T) {
	specs := []string{
		"drop=0.01,crash=0@200000:300000",
		"crash=5@9000000:500000,burst=0.02:6",
		"crash=1@1000000:250000,crash=3@5000000:400000",
		"partition=0.2@3000000:600000,drop=0.01",
	}
	if testing.Short() {
		specs = specs[:2]
	}
	for i, spec := range specs {
		fc := mustSpec(t, spec, 40+uint64(i))
		rep := RunWorkloadFault(Generate(2+uint64(i), 8), harness.Kinds(), fc)
		if rep.Failed() {
			small, spent := ShrinkFault(rep.Workload, harness.Kinds(), 32, fc)
			t.Fatalf("spec %q failed (shrunk in %d replays):\n%s", spec, spent, small)
		}
		if rep.Baseline == nil {
			t.Fatalf("spec %q: no fault-free baseline recorded", spec)
		}
	}
}

// TestOrphanSweepKeepsLockChainCopies pins the crash schedules on which the
// AEC orphan sweep used to lose lock-protected updates (the five smallest of
// the 25 failures in fuzzdsm -iters 1000 -crash-seed 0, docs/ROBUSTNESS.md).
// Seed 75 crashes a node whose clean copy holds this step's critical-
// section diffs, which no home can return; the other four crash a node in
// the middle of a write fault, between validating the page and twinning it.
func TestOrphanSweepKeepsLockChainCopies(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		spec string
	}{
		{75, "crash=0@727059:262693"},
		{257, "crash=2@167380:288942"},
		{537, "crash=1@99385:323450,crash=1@505531:141344"},
		{611, "crash=4@249488:113289"},
		{869, "crash=8@331718:98143,crash=3@1953228:71676"},
	} {
		kinds := []harness.ProtocolKind{harness.ProtoAEC, harness.ProtoAECNoLAP, harness.ProtoIdeal}
		if rep := RunWorkloadFault(Generate(c.seed, 0), kinds, mustSpec(t, c.spec, c.seed)); rep.Failed() {
			t.Errorf("seed %d under %s:\n%s", c.seed, c.spec, rep)
		}
	}
}

// TestCrashFailoverFires pins the mechanism, not just the outcome: under
// a mid-run crash of a manager node, every DSM protocol must actually
// take the failover path (crash counted, replication log non-empty) and
// still produce the fault-free answer.
func TestCrashFailoverFires(t *testing.T) {
	w := Generate(2, 0)
	clean := apps.NewSynth(w.Cfg)
	harness.Run(w.Params(), harness.NewProtocol(harness.ProtoAEC, 2), clean).Must()
	want := clean.FinalChecksum()

	fc := mustSpec(t, "crash=5@9000000:500000", 7)
	for _, k := range []harness.ProtocolKind{harness.ProtoAEC, harness.ProtoTM, harness.ProtoMunin} {
		prog := apps.NewSynth(w.Cfg)
		res := harness.RunFaultTraced(w.Params(), harness.NewProtocol(k, 2), prog, nil, fc)
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		crashes := res.Run.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes })
		logBytes := res.Run.Sum(func(p *stats.Proc) uint64 { return p.ReplicaLogBytes })
		failover := res.Run.Sum(func(p *stats.Proc) uint64 { return p.FailoverCycles })
		if crashes != 1 {
			t.Errorf("%s: want 1 crash, got %d", k, crashes)
		}
		if logBytes == 0 {
			t.Errorf("%s: replication log never shipped a record", k)
		}
		if failover == 0 {
			t.Errorf("%s: crash charged no failover cycles", k)
		}
		if got := prog.FinalChecksum(); got != want {
			t.Errorf("%s: crashed run changed the answer: %016x != %016x", k, got, want)
		}
	}
}

// TestLAPFallback forces the degraded-mode LAP path: with every
// best-effort push dropped, AEC acquirers must time out waiting for the
// predicted update, fall back to explicit home-based fetches, and still
// compute the fault-free answer.
func TestLAPFallback(t *testing.T) {
	w := Generate(21, 8)
	prog := apps.NewSynth(w.Cfg)
	clean := harness.Run(w.Params(), harness.NewProtocol(harness.ProtoAEC, 2), prog)
	if err := clean.Err(); err != nil {
		t.Fatal(err)
	}
	want := prog.FinalChecksum()

	fc := &fault.Config{Seed: 4, Drop: 1}
	prog2 := apps.NewSynth(w.Cfg)
	faulty := harness.RunFaultTraced(w.Params(), harness.NewProtocol(harness.ProtoAEC, 2), prog2, nil, fc)
	if err := faulty.Err(); err != nil {
		t.Fatal(err)
	}
	fallbacks := faulty.Run.Sum(func(p *stats.Proc) uint64 { return p.LAPFallbacks })
	if fallbacks == 0 {
		t.Fatal("no LAP fallbacks despite every eager push being dropped")
	}
	if got := prog2.FinalChecksum(); got != want {
		t.Fatalf("degraded-mode LAP changed the answer: %016x != %016x", got, want)
	}
}
