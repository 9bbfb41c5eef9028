package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
	"aecdsm/internal/predict"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// TestDriverMisuse: a protocol kind, an application or a fault spec that
// no caller outside the program can pass (the CLIs and the library parse
// names first) panics naming the bad input, before any simulation runs.
func TestDriverMisuse(t *testing.T) {
	e := NewExperiments(0.05)
	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"unknown kind", `unknown protocol kind Nope`, func() { NewProtocol("Nope", 2) }},
		{"unknown app", `unknown app Nope`, func() { e.Run("Nope", ProtoIdeal) }},
		{"bad fault spec", `fault spec drop=2`, func() {
			spec := e.spec("IS", ProtoIdeal, 2)
			spec.faults = "drop=2"
			e.runOne(spec)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			tc.call()
		})
	}
}

// TestEmptyRatios: a share of nothing and the references per
// synchronization of a run that never synchronizes render as 0, not NaN.
func TestEmptyRatios(t *testing.T) {
	if got := pct(5, 0); got != 0 {
		t.Errorf("pct(5, 0) = %v, want 0", got)
	}
	if got := remRefsPerSync(stats.NewRun("app", "proto", 2)); got != 0 {
		t.Errorf("remRefsPerSync of a run without syncs = %v, want 0", got)
	}
}

// TestScalingSweepNoRunnableSizes: when the splitter refuses every
// requested size the sweep says so and renders no table, without running
// a simulation.
func TestScalingSweepNoRunnableSizes(t *testing.T) {
	e := NewExperiments(0.05) // FFT's 32x32 matrix feeds at most 32 processors
	var buf bytes.Buffer
	e.ScalingSweep(&buf, "FFT", []int{64, 128})
	out := buf.String()
	for _, want := range []string{"64 procs skipped:", "128 procs skipped:", "no runnable machine sizes"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "procs protocol") || len(e.sched.cache) != 0 {
		t.Errorf("sweep rendered a table or ran a simulation:\n%s", out)
	}
}

// TestLockLabRowsEdgeLocks: the lab leaves out a lock its run never
// acquired, and feeds the model the analytic handoff for a lock that was
// never handed from one holder to a waiter, which has no measured one.
func TestLockLabRowsEdgeLocks(t *testing.T) {
	params := memsys.Default().ForProcs(lockLabProcs)
	params.LockPolicy = string(lockpolicy.FIFO)
	var hold, gap, queue trace.Histogram
	hold.Observe(400)
	gap.Observe(2000)
	queue.Observe(0)
	out := runOutcome{run: stats.NewRun("synth", "AEC", lockLabProcs), locks: []trace.LockSummary{
		{Lock: 0}, // never acquired
		{Lock: 1, Acquires: 3, HoldCy: hold, GapCy: gap, QueueLen: queue},
	}}
	out.run.Cycles = 100000
	rows := lockLabRows("edge", params, out)
	if len(rows) != 1 || rows[0].Lock != 1 {
		t.Fatalf("rows %+v, want one for lock 1", rows)
	}
	want := predict.Handoff(params, lockpolicy.FIFO, queue.Mean(), lockLabNs)
	if rows[0].Handoff != want {
		t.Errorf("handoff %v, want the analytic %v", rows[0].Handoff, want)
	}
}
