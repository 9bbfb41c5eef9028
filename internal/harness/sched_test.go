package harness

import (
	"bytes"
	"testing"

	"aecdsm/internal/trace"
)

// renderAt renders a set of table/figure drivers with the given job count
// and returns the concatenated output.
func renderAt(jobs int, scale float64, render func(e *Experiments, buf *bytes.Buffer)) []byte {
	e := NewExperiments(scale)
	e.Jobs = jobs
	var buf bytes.Buffer
	render(e, &buf)
	return buf.Bytes()
}

// TestParallelOutputIdentical pins the scheduler's core contract: every
// table, figure and sweep renders byte-identical output whether the runs
// execute strictly sequentially (Jobs=1) or on an 8-worker pool (Jobs=8).
func TestParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full table suite")
	}
	const scale = 0.05
	sections := []struct {
		name   string
		render func(e *Experiments, buf *bytes.Buffer)
	}{
		{"Table1", func(e *Experiments, b *bytes.Buffer) { e.Table1(b) }},
		{"Table2", func(e *Experiments, b *bytes.Buffer) { e.Table2(b) }},
		{"Table3", func(e *Experiments, b *bytes.Buffer) { e.Table3(b) }},
		{"Table4", func(e *Experiments, b *bytes.Buffer) { e.Table4(b) }},
		{"Figure3", func(e *Experiments, b *bytes.Buffer) { e.Figure3(b) }},
		{"Figure4", func(e *Experiments, b *bytes.Buffer) { e.Figure4(b) }},
		{"Figure5", func(e *Experiments, b *bytes.Buffer) { e.Figure5(b) }},
		{"Figure6", func(e *Experiments, b *bytes.Buffer) { e.Figure6(b) }},
		{"NsSweep", func(e *Experiments, b *bytes.Buffer) { e.NsSweep(b) }},
		{"KeyStats", func(e *Experiments, b *bytes.Buffer) { e.KeyStats(b) }},
		{"ScalingSweep", func(e *Experiments, b *bytes.Buffer) { e.ScalingSweep(b, "Ocean", []int{16, 64}) }},
		{"RecoverySweep", func(e *Experiments, b *bytes.Buffer) { e.RecoverySweep(b, "IS") }},
		{"Timeline", func(e *Experiments, b *bytes.Buffer) { e.TimelineSweep(b, "Raytrace") }},
		{"LockLab", func(e *Experiments, b *bytes.Buffer) { e.LockLab(b) }},
		{"Speedup", func(e *Experiments, b *bytes.Buffer) { e.Speedup(b, "Ocean") }},
	}
	for _, sec := range sections {
		sec := sec
		t.Run(sec.name, func(t *testing.T) {
			t.Parallel()
			seq := renderAt(1, scale, sec.render)
			par := renderAt(8, scale, sec.render)
			if !bytes.Equal(seq, par) {
				t.Errorf("%s differs between -jobs=1 and -jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s",
					sec.name, seq, par)
			}
		})
	}
}

// TestExperimentsConcurrentInstances drives two independent Experiments
// instances from concurrent goroutines while each runs its own parallel
// prefetch — the shape the race detector must bless: engines are isolated,
// instances share nothing, and the memo caches are mutex-guarded.
func TestExperimentsConcurrentInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("two full table renders")
	}
	outs := make([][]byte, 2)
	done := make(chan int, 2)
	for i := range outs {
		i := i
		go func() {
			e := NewExperiments(0.05)
			e.Jobs = 4
			var buf bytes.Buffer
			e.Table3(&buf)
			e.Figure5(&buf)
			outs[i] = buf.Bytes()
			done <- i
		}()
	}
	<-done
	<-done
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("concurrent Experiments instances rendered different output")
	}
	if len(outs[0]) == 0 {
		t.Error("concurrent render produced no output")
	}
}

// TestJobsResolution pins the worker-count policy: explicit Jobs wins, a
// tracer forces sequential execution.
func TestJobsResolution(t *testing.T) {
	e := NewExperiments(0.05)
	if e.jobs() < 1 {
		t.Errorf("default jobs = %d, want >= 1", e.jobs())
	}
	e.Jobs = 3
	if got := e.jobs(); got != 3 {
		t.Errorf("explicit Jobs: got %d, want 3", got)
	}
	e.Tracer = nopTracer{}
	if got := e.jobs(); got != 1 {
		t.Errorf("tracer attached: got %d jobs, want 1", got)
	}
}

// nopTracer is a do-nothing trace sink for the jobs-resolution test.
type nopTracer struct{}

func (nopTracer) Trace(trace.Event) {}
