package harness

import (
	"fmt"
	"io"
	"math"

	"aecdsm/internal/apps"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
	"aecdsm/internal/predict"
)

// The lock-policy lab (docs/LOCKING.md) runs synthetic lock workloads
// under AEC once per grant discipline, measures each lock through the
// trace-metrics sink, feeds the measured hold/think distributions into
// the analytical MVA model (internal/predict) and tables prediction
// against simulation. The workloads are fixed-size — independent of the
// experiment scale, like Table 1 — so results/locklab.txt is reproducible
// byte-for-byte from any checkout.

// lockLabProcs is the machine size of every lab run; small enough that
// the whole 2x4 run grid regenerates in seconds.
const lockLabProcs = 8

// lockLabNs is the AEC update-set size used by the lab runs, mirrored
// into the predictor's handoff term.
const lockLabNs = 2

// LockLabWaitErrBoundPct is the documented accuracy contract of the
// analytical model: the per-policy mean absolute wait-prediction error
// stays under this bound on the lab workloads (enforced by
// TestLockLabPredictionErrorBound).
const LockLabWaitErrBoundPct = 20.0

// lockLabConfig is one synthetic workload of the lab.
type lockLabConfig struct {
	name string
	note string
	cfg  apps.SynthConfig
}

// lockLabConfigs returns the lab's workloads: a single hot lock (the
// MVA model's home turf: every processor hammers one queue) and a
// spread of four locks with correspondingly lighter per-lock contention.
func lockLabConfigs() []lockLabConfig {
	return []lockLabConfig{
		{
			name: "hot",
			note: "1 lock, 4 phases x 12 ops/proc: maximum contention on one queue",
			cfg: apps.SynthConfig{Seed: 41, Locks: 1, CellsPerLock: 4,
				Phases: 4, OpsPerPhase: 12, PadWords: 24},
		},
		{
			name: "spread",
			note: "4 locks, 4 phases x 12 ops/proc: contention split four ways",
			cfg: apps.SynthConfig{Seed: 42, Locks: 4, CellsPerLock: 4,
				Phases: 4, OpsPerPhase: 12, PadWords: 24},
		},
	}
}

// LockLabRow is the lab's measurement-versus-prediction record for one
// (workload, policy, lock) combination.
type LockLabRow struct {
	Config   string
	Policy   lockpolicy.Kind
	Lock     int
	Acquires uint64
	HoldCy   float64 // measured mean hold, grant -> release
	ThinkCy  float64 // measured mean gap, release -> next request
	Handoff  float64 // handoff fed to the MVA (measured, or analytic floor)
	MeasWait float64 // simulated mean wait, request -> grant
	PredWait float64 // MVA-predicted mean wait
	WaitErr  float64 // signed (pred-meas)/meas percentage
	MeasX    float64 // simulated throughput, acquires per cycle
	PredX    float64 // MVA-predicted throughput
	Bypasses uint64  // out-of-arrival-order grants (affinity/lease)
	Renewals uint64  // lease self-renewals
}

// LockLabStats is the full lab outcome: all rows plus the per-policy and
// overall mean absolute wait-prediction errors the accuracy contract is
// stated over.
type LockLabStats struct {
	Rows       []LockLabRow
	MeanAbsErr map[lockpolicy.Kind]float64
	OverallErr float64
}

// LockLabData runs the lab grid (workloads x policies) and computes the
// prediction table data. Each cell is one spec — a synthetic workload on
// the lab's own machine, with a metrics sink of its own — memoized and
// traced like any table run.
func (e *Experiments) LockLabData() LockLabStats {
	configs, kinds := lockLabConfigs(), lockpolicy.Kinds()
	at := func(lc lockLabConfig, kind lockpolicy.Kind) runSpec {
		params := memsys.Default().ForProcs(lockLabProcs)
		params.LockPolicy = string(kind)
		return runSpec{synth: lc.cfg, proto: ProtoAEC, ns: lockLabNs, params: params, metrics: true}
	}
	var specs []runSpec
	for _, lc := range configs {
		for _, kind := range kinds {
			specs = append(specs, at(lc, kind))
		}
	}
	e.prefetch(specs)

	st := LockLabStats{MeanAbsErr: map[lockpolicy.Kind]float64{}}
	sums := map[lockpolicy.Kind]float64{}
	counts := map[lockpolicy.Kind]float64{}
	var allSum, allN float64
	for _, lc := range configs {
		for _, kind := range kinds {
			spec := at(lc, kind)
			for _, r := range lockLabRows(lc.name, spec.params, e.outcome(spec)) {
				st.Rows = append(st.Rows, r)
				sums[r.Policy] += math.Abs(r.WaitErr)
				counts[r.Policy]++
				allSum += math.Abs(r.WaitErr)
				allN++
			}
		}
	}
	for _, k := range kinds {
		if counts[k] > 0 {
			st.MeanAbsErr[k] = sums[k] / counts[k]
		}
	}
	if allN > 0 {
		st.OverallErr = allSum / allN
	}
	return st
}

// lockLabRows turns one traced run into per-lock table rows: measured
// hold/think/wait from the metrics histograms, predicted wait and
// throughput from the MVA model fed with those same measurements.
func lockLabRows(config string, params memsys.Params, out runOutcome) []LockLabRow {
	kind, cycles := lockpolicy.Kind(params.LockPolicy), out.run.Cycles
	var rows []LockLabRow
	for _, l := range out.locks {
		if l.Acquires == 0 {
			continue
		}
		hold := l.HoldCy.Mean()
		think := l.GapCy.Mean()
		// Prefer the measured contended-handoff distribution (it includes
		// the workload's release-side diff/push work, which Table 1 alone
		// cannot give); the analytic messaging floor stands in for locks
		// that never had a waiter through a release.
		handoff := l.HandoffCy.Mean()
		if l.HandoffCy.Count == 0 {
			handoff = predict.Handoff(params, kind, l.QueueLen.Mean(), lockLabNs)
		}
		out := predict.MVA(predict.Inputs{
			Procs:         params.NumProcs,
			HoldCycles:    hold,
			ThinkCycles:   think,
			HandoffCycles: handoff,
		})
		row := LockLabRow{
			Config: config, Policy: kind, Lock: l.Lock,
			Acquires: l.Acquires, HoldCy: hold, ThinkCy: think, Handoff: handoff,
			MeasWait: l.WaitCy.Mean(), PredWait: out.WaitCycles,
			PredX:    out.Throughput,
			Bypasses: l.Bypasses, Renewals: l.Renewals,
		}
		if cycles > 0 {
			row.MeasX = float64(l.Acquires) / float64(cycles)
		}
		if row.MeasWait > 0 {
			row.WaitErr = 100 * (row.PredWait - row.MeasWait) / row.MeasWait
		}
		rows = append(rows, row)
	}
	return rows
}

// LockLab renders the lock-policy lab table: per-lock measured versus
// predicted wait and throughput for all four grant disciplines, with the
// per-policy mean absolute error summary the accuracy contract is stated
// over (docs/LOCKING.md).
func (e *Experiments) LockLab(w io.Writer) {
	st := e.LockLabData()
	fmt.Fprintf(w, "Lock-policy lab: analytical MVA prediction vs simulation (docs/LOCKING.md).\n")
	fmt.Fprintf(w, "Synthetic lock workloads under AEC (Ns=%d) on the Table 1 node, %d processors;\n",
		lockLabNs, lockLabProcs)
	fmt.Fprintf(w, "hold/think measured by the trace-metrics sink feed the closed-network MVA model\n")
	fmt.Fprintf(w, "(internal/predict). wait in cycles; xput in acquires/Mcycle; err%% = (mva-sim)/sim.\n")

	for _, lc := range lockLabConfigs() {
		fmt.Fprintf(w, "\nworkload %q — %s:\n", lc.name, lc.note)
		fmt.Fprintf(w, "  %-8s %4s %8s %9s %9s %8s %9s %9s %7s %8s %8s %6s %6s\n",
			"policy", "lock", "acquires", "hold", "think", "handoff",
			"wait-sim", "wait-mva", "err%", "xput-sim", "xput-mva", "bypass", "renew")
		for _, r := range st.Rows {
			if r.Config != lc.name {
				continue
			}
			fmt.Fprintf(w, "  %-8s %4d %8d %9.0f %9.0f %8.0f %9.0f %9.0f %6.1f%% %8.2f %8.2f %6d %6d\n",
				r.Policy, r.Lock, r.Acquires, r.HoldCy, r.ThinkCy, r.Handoff,
				r.MeasWait, r.PredWait, r.WaitErr,
				r.MeasX*1e6, r.PredX*1e6, r.Bypasses, r.Renewals)
		}
	}

	fmt.Fprintf(w, "\nmean |wait err|:")
	for _, k := range lockpolicy.Kinds() {
		fmt.Fprintf(w, "  %s %.1f%%", k, st.MeanAbsErr[k])
	}
	fmt.Fprintf(w, "   overall %.1f%% (contract: < %.0f%%, docs/LOCKING.md)\n",
		st.OverallErr, LockLabWaitErrBoundPct)
}
