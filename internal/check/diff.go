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
	Err        error    // the run's verdict, harness.Result.Err
	Cycles     uint64   // the run's parallel execution time
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
	// Failures lists everything wrong: each run's Err and invariant
	// violations, the baseline's Err, plus disagreements.
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
		fmt.Fprintf(&b, "  %-10s final=%016x cycles=%d err=%v violations=%d\n",
			run.Kind, run.Final, run.Cycles, run.Err, len(run.Violations))
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
// the invariant auditor attached, then judges the runs: every run
// finished and verified (harness.Result.Err), no invariant violations,
// and bit-identical checksums of all shared state at every barrier phase.
// A non-nil fcfg runs every protocol under the same deterministic fault
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
		rep.Runs = append(rep.Runs, ProtocolRun{
			Kind:       k,
			Err:        res.Err(),
			Cycles:     res.Cycles(),
			Final:      prog.FinalChecksum(),
			Phases:     prog.PhaseChecksums(),
			Violations: aud.Violations(),
		})
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
		rep.Baseline = &ProtocolRun{
			Kind:   kinds[0],
			Err:    res.Err(),
			Cycles: res.Cycles(),
			Final:  prog.FinalChecksum(),
			Phases: prog.PhaseChecksums(),
		}
	}
	rep.Failures = judge(rep.Runs, rep.Baseline)
	return rep
}

// judge lists everything wrong with one workload's runs: each run's Err
// and invariant violations in run order, then the fault-free baseline's
// Err and every run against the baseline (nil for none), then every run
// against the first. Runs that all agree yield nil.
func judge(runs []ProtocolRun, base *ProtocolRun) []string {
	var fails []string
	for _, run := range runs {
		if run.Err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", run.Kind, run.Err))
		}
		for _, v := range run.Violations {
			fails = append(fails, fmt.Sprintf("%s: invariant violated: %s", run.Kind, v))
		}
	}
	if base != nil {
		if base.Err != nil {
			fails = append(fails, fmt.Sprintf("fault-free %s: %v", base.Kind, base.Err))
		}
		for i := range runs {
			fails = mismatches(fails, "fault-free", base, string(runs[i].Kind), &runs[i])
		}
	}
	for i := 1; i < len(runs); i++ {
		fails = mismatches(fails, string(runs[0].Kind), &runs[0], string(runs[i].Kind), &runs[i])
	}
	return fails
}

// CrossPolicy compares the per-policy reports of one seed: grant order is
// the only degree of freedom a policy has, so the first run's checksums
// must be bit-identical under every policy. Reports without runs (a policy
// that did not parse) are skipped; the first with runs is the reference.
func CrossPolicy(perPolicy []*Report) []string {
	var fails []string
	var ref *Report
	for _, rep := range perPolicy {
		if len(rep.Runs) == 0 {
			continue
		}
		if ref == nil {
			ref = rep
			continue
		}
		fails = mismatches(fails, orFIFO(ref.Workload.Policy), &ref.Runs[0], orFIFO(rep.Workload.Policy), &rep.Runs[0])
	}
	return fails
}

// orFIFO names the default grant policy in failure lines.
func orFIFO(policy string) string {
	if policy == "" {
		return string(lockpolicy.FIFO)
	}
	return policy
}

// mismatches appends to fails what differs between a run's checksums and a
// reference run's: the final checksum, then the phase count or else the
// first phase that differs. refLabel and label name the two sides.
func mismatches(fails []string, refLabel string, ref *ProtocolRun, label string, run *ProtocolRun) []string {
	if run.Final != ref.Final {
		fails = append(fails, fmt.Sprintf("final checksum mismatch: %s=%016x vs %s=%016x",
			refLabel, ref.Final, label, run.Final))
	}
	if len(run.Phases) != len(ref.Phases) {
		return append(fails, fmt.Sprintf("phase count mismatch: %s=%d vs %s=%d",
			refLabel, len(ref.Phases), label, len(run.Phases)))
	}
	for p := range ref.Phases {
		if run.Phases[p] != ref.Phases[p] {
			return append(fails, fmt.Sprintf("phase %d checksum mismatch: %s=%016x vs %s=%016x",
				p, refLabel, ref.Phases[p], label, run.Phases[p]))
		}
	}
	return fails
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
	for improved := true; improved; {
		improved = false
		for _, cand := range reductions(best.Workload) {
			if spent >= budget {
				return best, spent
			}
			rep := RunWorkloadFault(cand, kinds, fcfg)
			spent++
			if rep.Failed() {
				best, improved = rep, true
				break
			}
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
	add(func(c *Workload) { c.Procs = max(c.Procs/2, 2) })
	add(func(c *Workload) { c.Cfg.Phases = max(c.Cfg.Phases/2, 1) })
	add(func(c *Workload) { c.Cfg.OpsPerPhase = max(c.Cfg.OpsPerPhase/2, 1) })
	add(func(c *Workload) { c.Cfg.Locks = max(c.Cfg.Locks/2, 1) })
	add(func(c *Workload) { c.Cfg.CellsPerLock = max(c.Cfg.CellsPerLock/2, 2) })
	add(func(c *Workload) { c.Cfg.PadWords = 0 })
	add(func(c *Workload) { c.Cfg.Notices = false })
	return out
}
