package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"aecdsm"
)

// TestRunExitCodes drives the command at its boundary: a selection, app,
// scale, machine list, job count or argument it does not accept — two
// selections at once, or a sweep's flag without its sweep, included — is a
// usage error (2) reported before any simulation starts, an output the
// environment refuses
// is a failure (1), and a table renders on stdout with exit 0. Table 1 runs
// no simulation, so every row is instant.
func TestRunExitCodes(t *testing.T) {
	apps := strings.Join(aecdsm.Apps(), ", ")
	unwritable := filepath.Join(t.TempDir(), "missing", "m.json")
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		out, errw string // the substring wanted on stdout / stderr; "" wants silence
	}{
		{"unknown table", []string{"-table", "9"}, 2, "", `unknown selection -table="9"`},
		{"unknown figure", []string{"-figure", "7"}, 2, "", `-figure="7"`},
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"unknown scaling app", []string{"-scaling", "-scaling-app", "Nope"}, 2, "", `-scaling-app "Nope" (want one of ` + apps},
		{"unknown recovery app", []string{"-recovery", "-recovery-app", "Nope"}, 2, "", `-recovery-app "Nope" (want one of ` + apps},
		{"unknown timeline app", []string{"-timeline", "-timeline-app", "Nope"}, 2, "", `-timeline-app "Nope" (want one of ` + apps},
		{"negative scale", []string{"-table", "1", "-scale", "-3"}, 2, "", "scale -3 is outside (0, 1]"},
		{"scale above one", []string{"-table", "1", "-scale", "1.5"}, 2, "", "scale 1.5 is outside (0, 1]"},
		{"stray argument", []string{"-table", "1", "3"}, 2, "", `unexpected argument "3"`},
		{"bad machine list", []string{"-scaling", "-scaling-procs", "12x"}, 2, "", `bad -scaling-procs entry "12x"`},
		{"repeated machine size", []string{"-scaling", "-scaling-procs", "16,64,16"}, 2, "", "-scaling-procs lists 16 twice"},
		{"negative jobs", []string{"-jobs", "-3", "-table", "1"}, 2, "", "-jobs must not be negative, got -3"},
		{"table and figure", []string{"-table", "1", "-figure", "5"}, 2, "", "-table and -figure select different outputs; choose one"},
		{"locklab and table", []string{"-locklab", "-table", "1"}, 2, "", "-table and -locklab select different outputs"},
		{"two sweeps", []string{"-recovery", "-timeline"}, 2, "", "-recovery and -timeline select different outputs"},
		{"scaling app without the sweep", []string{"-table", "1", "-scaling-app", "Nope"}, 2, "", "-scaling-app is set without -scaling"},
		{"machine list without the sweep", []string{"-scaling-procs", "16"}, 2, "", "-scaling-procs is set without -scaling"},
		{"recovery app without the sweep", []string{"-timeline", "-recovery-app", "IS"}, 2, "", "-recovery-app is set without -recovery"},
		{"timeline app without the sweep", []string{"-table", "1", "-timeline-app", "IS"}, 2, "", "-timeline-app is set without -timeline"},
		{"bad trace format", []string{"-table", "1", "-trace", filepath.Join(t.TempDir(), "t"), "-trace-format", "xml"}, 2, "", "unknown -trace-format"},
		{"unwritable metrics", []string{"-table", "1", "-metrics", unwritable}, 1, "Table 1:", "writing metrics:"},
		{"unwritable trace", []string{"-table", "1", "-trace", unwritable}, 1, "", "missing"},
		{"table 1", []string{"-table", "1"}, 0, "Table 1: Defaults for System Params. 1 cycle = 10 ns.", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, errw.String())
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
}
