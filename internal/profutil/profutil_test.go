package profutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"aecdsm/internal/trace"
)

// parse registers the shared flags on a fresh set and parses args, as the
// drivers do on flag.CommandLine.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOpenErrors pins the messages and exit statuses the drivers print
// for bad observability flags: a bad value is a usage error (2), a path
// the environment refuses is a run-time failure (1).
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "out")
	cases := []struct {
		name string
		args []string
		msg  string
		code int
	}{
		{"unknown format", []string{"-trace", filepath.Join(dir, "t"), "-trace-format", "xml"},
			`unknown -trace-format "xml" (want jsonl or chrome)`, 2},
		{"unwritable trace", []string{"-trace", missing}, "no such file or directory", 1},
		{"unwritable cpuprofile", []string{"-cpuprofile", missing}, "no such file or directory", 1},
	}
	for _, c := range cases {
		_, _, err := parse(t, c.args...).Open()
		if err == nil {
			t.Errorf("%s: Open succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.msg)
		}
		if got := ExitCode(err); got != c.code {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.code)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t")); err == nil {
		t.Error("a rejected -trace-format still created the trace file")
	}

	// Paths only opened at close report there, prefixed with their phase.
	for _, c := range []struct{ flag, prefix string }{
		{"-metrics", "writing metrics: "},
		{"-memprofile", "writing profile: "},
	} {
		_, closeObs, err := parse(t, c.flag, missing).Open()
		if err != nil {
			t.Fatalf("%s: Open: %v", c.flag, err)
		}
		if err := closeObs(); err == nil || !strings.HasPrefix(err.Error(), c.prefix) {
			t.Errorf("%s: close error %v, want prefix %q", c.flag, err, c.prefix)
		}
	}
}

// TestOpenWritesOutputs drives the happy path: events reach both sinks
// and close leaves a trace and a metrics file behind.
func TestOpenWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"jsonl", "chrome"} {
		tracePath := filepath.Join(dir, format+".trace")
		metricsPath := filepath.Join(dir, format+".json")
		tr, closeObs, err := parse(t, "-trace", tracePath, "-trace-format", format, "-metrics", metricsPath).Open()
		if err != nil {
			t.Fatal(err)
		}
		ev := trace.Ev(7, 0, trace.KindLockRequest)
		ev.Lock = 3
		tr.Trace(ev)
		if err := closeObs(); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{tracePath, metricsPath} {
			if b, err := os.ReadFile(p); err != nil || len(b) == 0 {
				t.Errorf("%s: %s is missing or empty (%v)", format, p, err)
			}
		}
	}
	if tr, closeObs, err := parse(t).Open(); err != nil || tr != nil || closeObs() != nil {
		t.Errorf("no flags: tracer %v, err %v; want a nil tracer and a clean close", tr, err)
	}
}

// TestCloseFinishesEveryOutput: close writes the CPU and heap profiles
// and, when an output fails — a trace written to a full device — still
// finishes the rest and reports the failure with its phase. A heap profile
// written to the same device reports nothing: runtime/pprof drops the
// write errors of its compressed format.
func TestCloseFinishesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	_, closeObs, err := parse(t, "-cpuprofile", cpu, "-memprofile", heap).Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		if b, err := os.ReadFile(p); err != nil || len(b) == 0 {
			t.Errorf("%s is missing or empty (%v)", p, err)
		}
	}

	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("no %s here: %v", full, err)
	}
	metrics := filepath.Join(dir, "metrics.json")
	tr, closeObs, err := parse(t, "-trace", full, "-metrics", metrics, "-memprofile", full).Open()
	if err != nil {
		t.Fatal(err)
	}
	tr.Trace(trace.Ev(1, 0, trace.KindBarrierArrive))
	if err := closeObs(); err == nil || !strings.HasPrefix(err.Error(), "closing trace: ") || strings.Contains(err.Error(), "\n") {
		t.Errorf("close error %v, want the trace's failure alone", err)
	}
	if b, err := os.ReadFile(metrics); err != nil || len(b) == 0 {
		t.Errorf("a failed trace kept the metrics from being written: %v", err)
	}
}

// TestCPUProfileInUse: a CPU profile cannot start while another runs, and
// Open says so as an environment failure (exit 1).
func TestCPUProfileInUse(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("a CPU profile is already running: %v", err)
	}
	defer pprof.StopCPUProfile()
	_, _, err := parse(t, "-cpuprofile", filepath.Join(t.TempDir(), "cpu.prof")).Open()
	if err == nil || ExitCode(err) != 1 {
		t.Fatalf("-cpuprofile while a CPU profile runs: error %v, exit %d; want an error and exit 1", err, ExitCode(err))
	}
}

// TestPin: profiling pins the job count to 1; without a profile flag the
// requested count stands.
func TestPin(t *testing.T) {
	for _, c := range []struct {
		args []string
		jobs []int // requested, then pinned, in pairs
	}{
		{nil, []int{0, 0, 1, 1, 4, 4}},
		{[]string{"-cpuprofile", "x"}, []int{0, 1, 1, 1, 4, 1}},
		{[]string{"-memprofile", "x"}, []int{0, 1, 1, 1, 4, 1}},
	} {
		f := parse(t, c.args...)
		for i := 0; i < len(c.jobs); i += 2 {
			if got := f.Pin(c.jobs[i]); got != c.jobs[i+1] {
				t.Errorf("flags %v: Pin(%d) = %d, want %d", c.args, c.jobs[i], got, c.jobs[i+1])
			}
		}
	}
}
