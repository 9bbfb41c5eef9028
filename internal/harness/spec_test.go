package harness

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// TestResultMust pins the one failure policy: Must passes a clean result
// through, and panics on a split refusal, a deadlock and a verification
// failure with a message naming the application, protocol, machine size
// and fault schedule.
func TestResultMust(t *testing.T) {
	boom, drops := errors.New("boom"), &fault.Config{Drop: 0.02}
	for _, tc := range []struct {
		name string
		res  Result
		want string // "" = must not panic
	}{
		{"clean", Result{}, ""},
		{"clean under faults", Result{faults: drops}, ""},
		{"split", Result{SplitErr: boom}, "cannot run: boom"},
		{"deadlock", Result{Deadlocked: true}, "deadlocked"},
		{"verify", Result{VerifyErr: boom}, "failed verification: boom"},
		{"verify under faults", Result{VerifyErr: boom, faults: drops}, "failed verification: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.res
			res.Run = stats.NewRun("Ocean", "TM", 64)
			msg := panicMessage(func() {
				if got := res.Must(); got != &res {
					t.Error("Must did not return its receiver")
				}
			})
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("clean result panicked: %s", msg)
				}
				return
			}
			for _, part := range []string{"Ocean", "TM", "64 processors", tc.want} {
				if !strings.Contains(msg, part) {
					t.Errorf("panic %q does not mention %q", msg, part)
				}
			}
			if strings.Contains(msg, "with faults drop=0.02") != (res.faults != nil) {
				t.Errorf("panic %q names the fault schedule wrongly (schedule %v)", msg, res.faults)
			}
		})
	}
}

// panicMessage runs fn and returns the string it panicked with, "" if it
// returned normally.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	fn()
	return ""
}

// runCounter is a trace sink counting the runs it saw start.
type runCounter struct{ starts, events int }

func (c *runCounter) Trace(ev trace.Event) {
	c.events++
	if ev.Kind == trace.KindRunStart {
		c.starts++
	}
}

// TestSweepsTraceAndMemoize: every sweep honours Experiments.Tracer —
// each memoized spec it ran traces exactly once, and the rendered bytes
// equal the untraced render — and a second render on the same driver runs
// no new simulation.
func TestSweepsTraceAndMemoize(t *testing.T) {
	if testing.Short() {
		t.Skip("five sweeps, each three times")
	}
	for _, sw := range []struct {
		name   string
		scale  float64
		render func(e *Experiments, w io.Writer)
	}{
		{"Speedup", 0.1, func(e *Experiments, w io.Writer) { e.Speedup(w, "Ocean") }},
		{"Scaling", 0.05, func(e *Experiments, w io.Writer) { e.ScalingSweep(w, "Ocean", []int{16}) }},
		{"Recovery", 0.05, func(e *Experiments, w io.Writer) { e.RecoverySweep(w, "IS") }},
		{"LockLab", 1, func(e *Experiments, w io.Writer) { e.LockLab(w) }},
		{"Timeline", 0.05, func(e *Experiments, w io.Writer) { e.TimelineSweep(w, "Raytrace") }},
	} {
		t.Run(sw.name, func(t *testing.T) {
			var plain, traced, again bytes.Buffer
			sw.render(NewExperiments(sw.scale), &plain)

			e := NewExperiments(sw.scale)
			sink := &runCounter{}
			e.Tracer = sink
			sw.render(e, &traced)
			specs := len(e.sched.cache)
			if specs == 0 || sink.starts != specs {
				t.Errorf("%d runs traced, %d specs memoized", sink.starts, specs)
			}
			if sink.events <= 2*sink.starts {
				t.Errorf("%d events over %d runs: the runs themselves were not traced", sink.events, sink.starts)
			}
			if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
				t.Errorf("tracing perturbed the render:\n--- untraced ---\n%s--- traced ---\n%s", &plain, &traced)
			}

			sw.render(e, &again)
			if sink.starts != specs || len(e.sched.cache) != specs {
				t.Errorf("second render ran %d new simulations", sink.starts-specs)
			}
			if !bytes.Equal(traced.Bytes(), again.Bytes()) {
				t.Error("second render differs from the first")
			}
		})
	}
}

// TestParamsArePartOfTheSpec: the memo key carries the machine, so
// changing Params between two Run calls runs a new simulation instead of
// returning the result cached for the old machine.
func TestParamsArePartOfTheSpec(t *testing.T) {
	e := NewExperiments(0.05)
	on16 := e.Run("IS", ProtoAEC)
	e.Params = e.Params.ForProcs(8)
	on8 := e.Run("IS", ProtoAEC)
	if n := len(on8.Run.Procs); n != 8 {
		t.Errorf("run after Params changed to 8 processors has %d", n)
	}
	if on8.Cycles() == on16.Cycles() {
		t.Errorf("8- and 16-processor runs both took %d cycles: stale memo hit", on8.Cycles())
	}
	e.Params = e.Params.ForProcs(16)
	if back := e.Run("IS", ProtoAEC); back.Run != on16.Run {
		t.Error("restoring Params did not hit the memo")
	}
}

// faultShy is the Counter micro-program failing verification whenever it
// ran under fault injection.
type faultShy struct {
	*apps.Counter
	faulted bool
}

func (p *faultShy) Body(c *proto.Ctx) {
	if c.ID == 0 {
		p.faulted = c.E.Faults != nil
	}
	p.Counter.Body(c)
}

func (p *faultShy) Err() error {
	if p.faulted {
		return errors.New("ran under faults")
	}
	return p.Counter.Err()
}

// TestScalingSweepVerifiesFaultedTwin: a faulted twin that fails
// verification stops the sweep through Result.Must, like any other run.
func TestScalingSweepVerifiesFaultedTwin(t *testing.T) {
	const name = "fault-shy"
	apps.Registry[name] = func(apps.Config) proto.Program {
		return &faultShy{Counter: apps.NewCounter(2, 16, 4)}
	}
	defer delete(apps.Registry, name)
	e := NewExperiments(1)
	e.Jobs = 1 // a panic on a pool worker could not be recovered here
	msg := panicMessage(func() { e.ScalingSweep(io.Discard, name, []int{16}) })
	for _, part := range []string{"failed verification: ran under faults", "16 processors", "with faults"} {
		if !strings.Contains(msg, part) {
			t.Errorf("sweep panic %q does not mention %q", msg, part)
		}
	}
}
