package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aecdsm"
)

// TestRunExitCodes drives the command at its boundary: an application,
// protocol, scale, fault clause, trace format or argument it does not
// accept is a usage error (2) naming what it would accept, reported before
// any simulation starts or output file is created; an output the
// environment refuses is a failure (1); and a run prints its pinned cycle
// count first and exits 0.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	apps := strings.Join(aecdsm.Apps(), ", ")
	protocols := strings.Join(aecdsm.Protocols(), ", ")
	unwritable := filepath.Join(dir, "missing", "m.json")
	traceFile := filepath.Join(dir, "x.jsonl")
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		out, errw string // the substring wanted on stdout / stderr ("" wants silence); at exit 0, out is the first line
	}{
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"unknown app", []string{"-app", "Nope", "-trace", traceFile}, 2, "", `unknown -app "Nope" (want one of ` + apps},
		{"unknown protocol", []string{"-protocol", "Nope", "-trace", traceFile}, 2, "", `unknown -protocol "Nope" (want one of ` + protocols},
		{"bad fault clause", []string{"-faults", "drop=2", "-trace", traceFile}, 2, "", "drop wants a probability in [0,1]"},
		{"negative scale", []string{"-scale", "-3", "-trace", traceFile}, 2, "", "scale -3 is outside (0, 1]"},
		{"zero scale", []string{"-scale", "0"}, 2, "", "scale 0 is outside (0, 1]"},
		{"scale above one", []string{"-scale", "2"}, 2, "", "scale 2 is outside (0, 1]"},
		{"negative ns", []string{"-ns", "-3", "-trace", traceFile}, 2, "", "-ns -3 is below 1"},
		{"zero ns", []string{"-protocol", "Munin+LAP", "-ns", "0", "-trace", traceFile}, 2, "", "-ns 0 is below 1"},
		{"stray argument", []string{"-app", "IS", "Ocean"}, 2, "", `unexpected argument "Ocean"`},
		{"fault seed without faults", []string{"-fault-seed", "7", "-trace", traceFile}, 2, "", "-fault-seed is set without -faults"},
		{"bad trace format", []string{"-scale", "0.05", "-trace", traceFile, "-trace-format", "xml"}, 2, "", "unknown -trace-format"},
		{"stray argument after -list", []string{"-list", "extra"}, 2, "", `unexpected argument "extra"`},
		{"list", []string{"-list"}, 0, "applications: [" + strings.Join(aecdsm.Apps(), " ") + "]\n", ""},
		{"unwritable trace", []string{"-scale", "0.05", "-trace", unwritable}, 1, "", "missing"},
		{"unwritable metrics", []string{"-scale", "0.05", "-metrics", unwritable}, 1, "", "writing metrics:"},
		{"IS at a twentieth", []string{"-app", "IS", "-scale", "0.05"}, 0, "IS under AEC: 10308028 simulated cycles (103.08 ms at 100 MHz)\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, errw.String())
			}
			if first, _, _ := strings.Cut(out.String(), "\n"); tc.code == 0 && first+"\n" != tc.out {
				t.Errorf("first line of stdout = %q, want %q", first, tc.out)
			}
			for _, s := range []struct{ name, got, want string }{
				{"stdout", out.String(), tc.out}, {"stderr", errw.String(), tc.errw},
			} {
				if !strings.Contains(s.got, s.want) || (s.want == "" && s.got != "") {
					t.Errorf("%s = %q, want %q", s.name, s.got, s.want)
				}
			}
		})
	}
	if _, err := os.Stat(traceFile); err == nil {
		t.Errorf("a refused invocation left %s behind", traceFile)
	}
}
