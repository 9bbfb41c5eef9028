package harness

import (
	"bytes"
	"strings"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// TestFFTSplitRefusedAt1024Procs: feeding 1024 processors from a
// reduced-scale FFT used to panic with an index-out-of-range inside the
// program body (ROADMAP follow-on b). The splitter now refuses the
// combination up front with a size-aware error, surfaced through
// Result.SplitErr without running the simulation.
func TestFFTSplitRefusedAt1024Procs(t *testing.T) {
	prog := apps.NewFFT(apps.Config{Scale: 0.05})
	var sc proto.SplitChecker = prog
	err := sc.CheckSplit(1024)
	if err == nil {
		t.Fatal("CheckSplit(1024) at scale 0.05 succeeded, want a size-aware refusal")
	}
	for _, want := range []string{"1024", "row blocks", "scale"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CheckSplit error %q does not mention %q", err, want)
		}
	}

	params := memsys.Default().ForProcs(1024)
	res := Run(params, NewProtocol(ProtoIdeal, 2), apps.NewFFT(apps.Config{Scale: 0.05}))
	if res.SplitErr == nil {
		t.Fatal("Run returned no SplitErr for an infeasible split")
	}
	if res.Run.Cycles != 0 || res.Deadlocked || res.VerifyErr != nil {
		t.Fatalf("refused run should not have simulated anything: %+v", res)
	}
}

// TestFFTRunsAt64Procs: 64 processors overran the historical fixed-size
// processor-id table (8*64 bytes holds the counter plus only 63 slots);
// the table now grows with the machine, so a machine the splitter accepts
// actually runs.
func TestFFTRunsAt64Procs(t *testing.T) {
	if testing.Short() {
		t.Skip("64-processor run in -short mode")
	}
	prog := apps.NewFFT(apps.Config{Scale: 0.0625}) // a 64x64 matrix: one row per processor
	if prog.N != 64 {
		t.Fatalf("scale 0.0625 built a %dx%d matrix, expected 64x64", prog.N, prog.N)
	}
	if err := prog.CheckSplit(64); err != nil {
		t.Fatalf("CheckSplit(64) on a 64x64 matrix: %v", err)
	}
	res := Run(memsys.Default().ForProcs(64), NewProtocol(ProtoIdeal, 2), prog)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestScalingSweepSkipsInfeasibleSizes: the sweep drops sizes the
// splitter refuses and says so, instead of panicking mid-table.
func TestScalingSweepSkipsInfeasibleSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep in -short mode")
	}
	e := NewExperiments(0.05)
	var buf bytes.Buffer
	e.ScalingSweep(&buf, "FFT", []int{16, 1024})
	out := buf.String()
	if !strings.Contains(out, "1024 procs skipped:") {
		t.Fatalf("sweep output does not report the skipped size:\n%s", out)
	}
	if !strings.Contains(out, "16 ideal") && !strings.Contains(out, "   16 ideal") {
		t.Fatalf("sweep output is missing the runnable 16-processor rows:\n%s", out)
	}
	if strings.Contains(out, "1024 ideal") {
		t.Fatalf("sweep ran the size it should have skipped:\n%s", out)
	}
}
