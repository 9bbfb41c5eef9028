package profutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
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
