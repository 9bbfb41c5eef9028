package check

import (
	"fmt"
	"strings"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/lockpolicy"
)

// ProtocolRun is the outcome of one workload under one protocol.
type ProtocolRun struct {
	Kind       harness.ProtocolKind
	Deadlocked bool
	VerifyErr  error
	Final      uint64   // checksum of all shared state after the last phase
	Phases     []uint64 // checksum at every barrier phase
	Violations []string // invariant-auditor findings
}

// Report is the differential verdict for one workload across protocols.
type Report struct {
	Workload Workload
	// Faults is the fault schedule the runs were subjected to (nil =
	// fault-free).
	Faults *fault.Config
	Runs   []ProtocolRun
	// Baseline is the fault-free ground-truth run of the first protocol,
	// present only when Faults != nil: every faulted run's checksums must
	// match it bit for bit, not merely agree with each other.
	Baseline *ProtocolRun
	// Failures lists everything wrong: per-run deadlocks, verification
	// errors and invariant violations, plus cross-protocol disagreements.
	// Empty means every protocol agreed and every invariant held.
	Failures []string
}

// Failed reports whether anything went wrong.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// String renders the verdict with the reproduction command.
func (r *Report) String() string {
	var b strings.Builder
	w := r.Workload
	fmt.Fprintf(&b, "workload seed=%d procs=%d pagesize=%d locks=%d cells=%d phases=%d ops=%d pad=%d notices=%v%s\n",
		w.Seed, w.Procs, w.PageSize, w.Cfg.Locks, w.Cfg.CellsPerLock,
		w.Cfg.Phases, w.Cfg.OpsPerPhase, w.Cfg.PadWords, w.Cfg.Notices, policyTag(w.Policy))
	if r.Faults != nil {
		fmt.Fprintf(&b, "  faults %s seed=%d\n", r.Faults, r.Faults.Seed)
	}
	if r.Baseline != nil {
		fmt.Fprintf(&b, "  %-10s final=%016x (fault-free baseline)\n",
			r.Baseline.Kind, r.Baseline.Final)
	}
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %-10s final=%016x deadlock=%v verify=%v violations=%d\n",
			run.Kind, run.Final, run.Deadlocked, run.VerifyErr, len(run.Violations))
	}
	if r.Failed() {
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  FAIL: %s\n", f)
		}
		polFlag := ""
		if w.Policy != "" {
			polFlag = " -policy " + w.Policy
		}
		if r.Faults != nil {
			fmt.Fprintf(&b, "  reproduce: fuzzdsm -seed %d -iters 1 -procs %d%s -faults %s -fault-seed %d\n",
				w.Seed, w.Procs, polFlag, r.Faults, r.Faults.Seed-w.Seed)
		} else {
			fmt.Fprintf(&b, "  reproduce: fuzzdsm -seed %d -iters 1 -procs %d%s\n", w.Seed, w.Procs, polFlag)
		}
	}
	return b.String()
}

// policyTag renders the workload's policy override for reports.
func policyTag(policy string) string {
	if policy == "" {
		return ""
	}
	return " policy=" + policy
}

// DefaultProtocols is the four-way comparison set of the differential
// checker: the paper's protocol, both alternative DSM protocols, and the
// ideal shared-memory baseline as ground truth.
func DefaultProtocols() []harness.ProtocolKind {
	return []harness.ProtocolKind{
		harness.ProtoAEC, harness.ProtoTM, harness.ProtoMunin, harness.ProtoIdeal,
	}
}

// RunWorkloadFault executes one workload under every protocol kind with
// the invariant auditor attached, then cross-checks the runs: no
// deadlocks, no verification failures, no invariant violations, and
// bit-identical checksums of all shared state at every barrier phase. A
// non-nil fcfg runs every protocol under the same deterministic fault
// schedule, and the hardened protocols must still produce the fault-free
// run's barrier-phase checksums.
func RunWorkloadFault(w Workload, kinds []harness.ProtocolKind, fcfg *fault.Config) *Report {
	rep := &Report{Workload: w, Faults: fcfg}
	pol, err := lockpolicy.Parse(w.Policy)
	if err != nil {
		rep.Failures = append(rep.Failures, err.Error())
		return rep
	}
	// Every run reads the one schedule the first one generates.
	var in apps.Inputs
	for _, k := range kinds {
		prog := apps.NewSharedSynth(w.Cfg, &in)
		aud := NewAuditor(w.Procs)
		aud.SetPolicy(pol)
		res := harness.RunFaultTraced(w.Params(), harness.NewProtocol(k, 2), prog, aud, fcfg)
		run := ProtocolRun{
			Kind:       k,
			Deadlocked: res.Deadlocked,
			VerifyErr:  res.VerifyErr,
			Final:      prog.FinalChecksum(),
			Phases:     prog.PhaseChecksums(),
			Violations: aud.Violations(),
		}
		rep.Runs = append(rep.Runs, run)
		if run.Deadlocked {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: deadlocked", k))
		}
		if run.VerifyErr != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: verification failed: %v", k, run.VerifyErr))
		}
		for _, v := range run.Violations {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: invariant violated: %s", k, v))
		}
	}
	// Fault-free ground truth: faults may change timing, never results.
	// One clean run of the first protocol anchors the faulted runs — the
	// bar for fault (and especially crash) schedules is bit-identical
	// barrier-phase checksums against the fault-free execution, not merely
	// cross-protocol agreement, which a shared fault-induced divergence
	// could in principle satisfy.
	if fcfg != nil && len(kinds) > 0 {
		prog := apps.NewSharedSynth(w.Cfg, &in)
		res := harness.Run(w.Params(), harness.NewProtocol(kinds[0], 2), prog)
		base := &ProtocolRun{
			Kind:       kinds[0],
			Deadlocked: res.Deadlocked,
			VerifyErr:  res.VerifyErr,
			Final:      prog.FinalChecksum(),
			Phases:     prog.PhaseChecksums(),
		}
		rep.Baseline = base
		for _, run := range rep.Runs {
			if run.Final != base.Final {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: faulted final %016x != fault-free %016x",
					run.Kind, run.Final, base.Final))
			}
			if len(run.Phases) != len(base.Phases) {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: phase count changed under faults: %d vs fault-free %d",
					run.Kind, len(run.Phases), len(base.Phases)))
				continue
			}
			for p := range base.Phases {
				if run.Phases[p] != base.Phases[p] {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s phase %d: faulted %016x != fault-free %016x",
						run.Kind, p, run.Phases[p], base.Phases[p]))
					break
				}
			}
		}
	}
	// Cross-protocol equivalence against the first run.
	if len(rep.Runs) > 1 {
		ref := rep.Runs[0]
		for _, run := range rep.Runs[1:] {
			if run.Final != ref.Final {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"final checksum mismatch: %s=%016x vs %s=%016x",
					ref.Kind, ref.Final, run.Kind, run.Final))
			}
			if len(run.Phases) != len(ref.Phases) {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"phase count mismatch: %s=%d vs %s=%d",
					ref.Kind, len(ref.Phases), run.Kind, len(run.Phases)))
				continue
			}
			for p := range ref.Phases {
				if run.Phases[p] != ref.Phases[p] {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"phase %d checksum mismatch: %s=%016x vs %s=%016x",
						p, ref.Kind, ref.Phases[p], run.Kind, run.Phases[p]))
					break
				}
			}
		}
	}
	return rep
}

// ShrinkFault replays reduced variants of a failing workload — same seed,
// smaller shape — and returns the smallest variant that still fails
// together with the number of replays spent. Shrinking by seed replay
// keeps every repro a one-liner: the minimal workload is still fully
// described by (seed, overridden shape). The failing run's fault schedule
// (nil for none) is replayed on every reduced variant, so fault-dependent
// failures keep reproducing while they shrink.
func ShrinkFault(w Workload, kinds []harness.ProtocolKind, budget int, fcfg *fault.Config) (*Report, int) {
	best := RunWorkloadFault(w, kinds, fcfg)
	spent := 1
	if !best.Failed() {
		return best, spent
	}
	for spent < budget {
		improved := false
		for _, cand := range reductions(best.Workload) {
			if spent >= budget {
				break
			}
			rep := RunWorkloadFault(cand, kinds, fcfg)
			spent++
			if rep.Failed() {
				best = rep
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best, spent
}

// reductions proposes strictly smaller variants of a workload, most
// aggressive first.
func reductions(w Workload) []Workload {
	var out []Workload
	add := func(mod func(*Workload)) {
		c := w
		mod(&c)
		if c != w {
			out = append(out, c)
		}
	}
	add(func(c *Workload) { c.Procs = max2(c.Procs / 2) })
	add(func(c *Workload) { c.Cfg.Phases = max1(c.Cfg.Phases / 2) })
	add(func(c *Workload) { c.Cfg.OpsPerPhase = max1(c.Cfg.OpsPerPhase / 2) })
	add(func(c *Workload) { c.Cfg.Locks = max1(c.Cfg.Locks / 2) })
	add(func(c *Workload) { c.Cfg.CellsPerLock = max2(c.Cfg.CellsPerLock / 2) })
	add(func(c *Workload) { c.Cfg.PadWords = 0 })
	add(func(c *Workload) { c.Cfg.Notices = false })
	return out
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

func max2(v int) int {
	if v < 2 {
		return 2
	}
	return v
}
