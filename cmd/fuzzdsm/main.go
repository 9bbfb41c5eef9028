// Command fuzzdsm is the differential protocol fuzzer: it generates
// seedable randomized lock-disciplined workloads, runs each one under
// AEC, TreadMarks, Munin and the ideal shared-memory protocol with the
// runtime invariant auditor attached, and fails loudly if any protocol
// deadlocks, diverges from the others, or violates an invariant.
//
// Usage:
//
//	fuzzdsm                          # 25 iterations from seed 1
//	fuzzdsm -iters 500 -seed 1000    # long run, fresh seed range
//	fuzzdsm -seed 42 -iters 1        # reproduce one failure exactly
//	fuzzdsm -procs 4                 # force the processor count
//	fuzzdsm -protocols AEC,TM-LH     # choose the comparison set
//	fuzzdsm -policy affinity         # run under one lock grant discipline
//	fuzzdsm -policy all              # sweep fifo,mcs,affinity,lease per seed
//	fuzzdsm -faults light            # inject a deterministic fault schedule
//	fuzzdsm -faults drop=0.05,dup=0.02 -fault-seed 7
//	fuzzdsm -crash-seed 5            # layer 1-2 seeded node crashes per workload
//	fuzzdsm -jobs 8                  # 8 workloads in flight (same output)
//	fuzzdsm -memprofile mem.prof     # profile the checker itself (pins -jobs to 1)
//
// With -policy listing several grant disciplines (docs/LOCKING.md), each
// seed runs the full protocol comparison once per policy, the auditor
// applies the policy's own queue discipline (strict FIFO or the bounded
// bypass contract), and the barrier-phase checksums must additionally be
// bit-identical ACROSS policies — grant order is the only thing a policy
// may change.
//
// With -faults every protocol runs under the same seed-derived fault
// schedule and must still agree bit-for-bit at every barrier phase —
// the hardened transport (acks, retries, dedup) and degraded-mode LAP
// are what make that possible. See docs/ROBUSTNESS.md.
//
// With -crash-seed N >= 0, each workload additionally gets one or two
// seed-derived node crashes (state-destroying faults: primary-backup
// lock-manager failover, orphan-page invalidation) layered onto the
// -faults schedule, and every run must STILL be bit-identical — both
// across protocols and against a fault-free run of the same workload.
// The derived crash clauses are baked into the schedule, so failure
// repro lines print them explicitly (-faults crash=NODE@AT:DOWN,...)
// and shrinking replays them verbatim on every reduced variant; crashes
// naming nodes beyond a reduced machine are ignored by the engine, and
// absolute crash cycles may fall past the end of a shrunk run — a
// fault-dependent failure then simply stops reproducing and the shrink
// keeps the larger variant, which is still a one-line repro.
//
// Every failure is shrunk by seed replay and printed with the exact
// one-line command that reproduces it. See docs/TESTING.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/profutil"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command without its process: it parses args, prints the
// verdicts on out, reports on errw and returns the exit code — 2 for a
// flag value it does not know, before any workload runs or profile is
// opened; 1 when a workload failed or the environment refused a profile.
func run(args []string, out, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("fuzzdsm", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seed      = fs.Uint64("seed", 1, "first workload seed")
		jobs      = fs.Int("jobs", 0, "workloads to run concurrently (0 = GOMAXPROCS, 1 = sequential; output order is identical at every value)")
		iters     = fs.Int("iters", 25, "number of seeded workloads to run")
		procs     = fs.Int("procs", 0, "force processor count (0 = derive 2-16 from seed)")
		protocols = fs.String("protocols", "AEC,TM,Munin,ideal",
			"comma-separated protocols to compare (AEC, AEC-noLAP, TM, TM-LH, Munin, Munin+LAP, ideal)")
		policy = fs.String("policy", "",
			"comma-separated lock grant disciplines to sweep (fifo, mcs, affinity, lease; \"all\" = every one; empty = the fifo default)")
		faults    = fs.String("faults", "", "fault schedule: a preset (light, heavy) or clauses like drop=0.05,dup=0.02,delay=0.05:8000 (empty = no faults)")
		faultSeed = fs.Uint64("fault-seed", 0, "base seed for the fault schedule (per-workload seed is fault-seed + workload seed)")
		crashSeed = fs.Int64("crash-seed", -1, "derive 1-2 node crashes per workload from this seed and layer them onto -faults (-1 = none)")
		verbose   = fs.Bool("v", false, "print every workload verdict, not just failures")
	)
	prof := profutil.RegisterProfiles(fs, " (pins -jobs to 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	kinds, err := parseProtocols(*protocols)
	if err != nil {
		fmt.Fprintln(errw, "fuzzdsm:", err)
		return 2
	}
	policies, err := parsePolicies(*policy)
	if err != nil {
		fmt.Fprintln(errw, "fuzzdsm:", err)
		return 2
	}
	var baseFaults *fault.Config
	if *faults != "" {
		fc, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(errw, "fuzzdsm:", err)
			return 2
		}
		baseFaults = &fc
	}
	for _, n := range []struct {
		flag string
		v    int
	}{{"iters", *iters}, {"procs", *procs}, {"jobs", *jobs}} {
		if n.v < 0 {
			fmt.Fprintf(errw, "fuzzdsm: -%s must not be negative, got %d\n", n.flag, n.v)
			return 2
		}
	}
	if *crashSeed < -1 {
		fmt.Fprintf(errw, "fuzzdsm: -crash-seed must be a seed >= 0 or -1 for none, got %d\n", *crashSeed)
		return 2
	}
	if *iters > 0 && *seed > math.MaxUint64-uint64(*iters-1) {
		fmt.Fprintf(errw, "fuzzdsm: -seed %d with -iters %d runs past the largest seed\n", *seed, *iters)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "fault-seed" })
	if seedSet && baseFaults == nil && *crashSeed < 0 {
		fmt.Fprintln(errw, "fuzzdsm: -fault-seed is set without -faults or -crash-seed")
		return 2
	}

	_, closeProf, err := prof.Open()
	if err != nil {
		fmt.Fprintln(errw, "fuzzdsm:", err)
		return profutil.ExitCode(err)
	}
	defer func() {
		if err := closeProf(); err != nil {
			fmt.Fprintln(errw, "fuzzdsm:", err)
			code = 1
		}
	}()

	// Phase 1: run every seeded workload, up to -jobs at a time. Each
	// workload is a fully isolated set of engines, so they compose across
	// OS threads; reports land in seed-indexed slots.
	faultFor := func(s uint64, nprocs int) *fault.Config {
		if baseFaults == nil && *crashSeed < 0 {
			return nil
		}
		var fc fault.Config
		if baseFaults != nil {
			fc = *baseFaults
		}
		fc.Seed = *faultSeed + s
		if *crashSeed >= 0 {
			// Derived crash clauses are baked into the Config, never
			// shared: the slice is copied so concurrent workloads and the
			// shrinker each own their schedule.
			rng := apps.NewRand(s*0x9E3779B97F4A7C15 + uint64(*crashSeed))
			fc.Crashes = append([]fault.Crash(nil), fc.Crashes...)
			at := uint64(0)
			for n := 1 + rng.Intn(2); n > 0; n-- {
				at += uint64(50_000 + rng.Intn(1_500_000))
				down := uint64(30_000 + rng.Intn(300_000))
				fc.Crashes = append(fc.Crashes,
					fault.Crash{Node: rng.Intn(nprocs), At: at, Down: down})
				at += down
			}
		}
		return &fc
	}
	reports := make([]*check.Report, *iters*len(policies))
	harness.RunParallel(len(reports), prof.Pin(*jobs), func(i int) {
		s := *seed + uint64(i/len(policies))
		w := check.Generate(s, *procs)
		w.Policy = policies[i%len(policies)]
		reports[i] = check.RunWorkloadFault(w, kinds, faultFor(s, w.Procs))
	})

	// Phase 2: report (and shrink failures) strictly in seed order, so the
	// output is byte-identical to a sequential run.
	failures := 0
	for i := 0; i < *iters; i++ {
		s := *seed + uint64(i)
		perPolicy := reports[i*len(policies) : (i+1)*len(policies)]
		fcfg := faultFor(s, perPolicy[0].Workload.Procs)
		for _, rep := range perPolicy {
			if rep.Failed() {
				failures++
				fmt.Fprintf(out, "seed %d: FAIL\n%s", s, rep)
				small, spent := check.ShrinkFault(rep.Workload, kinds, 64, fcfg)
				if small.Workload != rep.Workload {
					fmt.Fprintf(out, "shrunk after %d replays:\n%s", spent, small)
				}
			} else if *verbose {
				fmt.Fprintf(out, "seed %d: ok\n%s", s, rep)
			} else {
				w := rep.Workload
				pol := ""
				if len(policies) > 1 {
					pol = " policy=" + w.Policy
				}
				fmt.Fprintf(out, "seed %d: ok (procs=%d locks=%d phases=%d ops=%d%s final=%016x)\n",
					s, w.Procs, w.Cfg.Locks, w.Cfg.Phases, w.Cfg.OpsPerPhase, pol, rep.Runs[0].Final)
			}
		}
		// Cross-policy equivalence: grant order is the only degree of
		// freedom a policy has, so every policy's runs must produce the
		// same barrier-phase checksums for the seed.
		for _, d := range crossPolicyDiffs(perPolicy) {
			failures++
			fmt.Fprintf(out, "seed %d: FAIL (cross-policy)\n  %s\n", s, d)
		}
	}
	if failures > 0 {
		fmt.Fprintf(out, "fuzzdsm: %d of %d workloads failed\n", failures, *iters*len(policies))
		return 1
	}
	if len(policies) > 1 {
		fmt.Fprintf(out, "fuzzdsm: %d workloads, %d protocols x %d policies each, all agree\n",
			*iters, len(kinds), len(policies))
		return 0
	}
	fmt.Fprintf(out, "fuzzdsm: %d workloads, %d protocols each, all agree\n", *iters, len(kinds))
	return 0
}

// crossPolicyDiffs compares the per-policy reports of one seed: the
// first run's final and per-phase checksums must be bit-identical under
// every policy.
func crossPolicyDiffs(perPolicy []*check.Report) []string {
	var diffs []string
	var ref *check.Report
	for _, rep := range perPolicy {
		if len(rep.Runs) == 0 {
			continue
		}
		if ref == nil {
			ref = rep
			continue
		}
		a, b := ref.Runs[0], rep.Runs[0]
		if a.Final != b.Final {
			diffs = append(diffs, fmt.Sprintf(
				"final checksum mismatch across policies: %s=%016x vs %s=%016x",
				orFIFO(ref.Workload.Policy), a.Final, orFIFO(rep.Workload.Policy), b.Final))
			continue
		}
		if len(a.Phases) != len(b.Phases) {
			diffs = append(diffs, fmt.Sprintf(
				"phase count mismatch across policies: %s=%d vs %s=%d",
				orFIFO(ref.Workload.Policy), len(a.Phases), orFIFO(rep.Workload.Policy), len(b.Phases)))
			continue
		}
		for p := range a.Phases {
			if a.Phases[p] != b.Phases[p] {
				diffs = append(diffs, fmt.Sprintf(
					"phase %d checksum mismatch across policies: %s=%016x vs %s=%016x",
					p, orFIFO(ref.Workload.Policy), a.Phases[p], orFIFO(rep.Workload.Policy), b.Phases[p]))
				break
			}
		}
	}
	return diffs
}

func orFIFO(policy string) string {
	if policy == "" {
		return string(lockpolicy.FIFO)
	}
	return policy
}

// parsePolicies expands the -policy flag into the workload policy sweep;
// the empty flag is a single run under the fifo default. Empty entries are
// skipped; a policy named twice is refused.
func parsePolicies(list string) ([]string, error) {
	if list == "" {
		return []string{""}, nil
	}
	if list == "all" {
		var out []string
		for _, k := range lockpolicy.Kinds() {
			out = append(out, string(k))
		}
		return out, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := lockpolicy.Parse(name)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, string(k)) {
			return nil, fmt.Errorf("policy %q listed twice", k)
		}
		out = append(out, string(k))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies selected")
	}
	return out, nil
}

func parseProtocols(list string) ([]harness.ProtocolKind, error) {
	known := map[string]harness.ProtocolKind{}
	for _, k := range harness.Kinds() {
		known[strings.ToLower(string(k))] = k
	}
	var kinds []harness.ProtocolKind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := known[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("unknown protocol %q (known: %v)", name, harness.Kinds())
		}
		if slices.Contains(kinds, k) {
			return nil, fmt.Errorf("protocol %q listed twice", k)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no protocols selected")
	}
	return kinds, nil
}
