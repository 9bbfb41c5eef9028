package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes drives the command at its boundary: a protocol, policy,
// fault clause, count or flag it does not know is a usage error (2)
// reported before any workload runs or profile is opened, a profile the
// environment refuses is a failure (1), and agreeing workloads print their
// pinned checksums and exit 0 — with a profile left behind when asked.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	unwritable := filepath.Join(dir, "missing", "p.prof")
	memProf := filepath.Join(dir, "mem.prof")
	cpuProf := filepath.Join(dir, "cpu.prof")
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		out, errw string // the substring wanted on stdout / stderr; "" wants silence
	}{
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"unknown protocol", []string{"-protocols", "AEC,Nope"}, 2, "", `unknown protocol "Nope" (known: `},
		{"no protocols", []string{"-protocols", ","}, 2, "", "no protocols selected"},
		{"repeated protocol", []string{"-protocols", "AEC,TM,aec"}, 2, "", `protocol "AEC" listed twice`},
		{"seed range past the largest seed", []string{"-seed", "18446744073709551615", "-iters", "2"}, 2, "", "-seed 18446744073709551615 with -iters 2 runs past the largest seed"},
		{"fault seed without a schedule", []string{"-fault-seed", "7"}, 2, "", "-fault-seed is set without -faults or -crash-seed"},
		{"unknown policy", []string{"-policy", "bogus"}, 2, "", "bogus"},
		{"bad fault clause", []string{"-faults", "drop=2"}, 2, "", "drop"},
		{"negative iters", []string{"-iters", "-1"}, 2, "", "-iters must not be negative"},
		{"negative procs", []string{"-procs", "-5"}, 2, "", "-procs must not be negative, got -5"},
		{"negative jobs", []string{"-jobs", "-3"}, 2, "", "-jobs must not be negative, got -3"},
		{"crash seed below none", []string{"-crash-seed", "-7"}, 2, "", "-crash-seed must be a seed >= 0 or -1 for none, got -7"},
		{"empty policy list", []string{"-policy", ","}, 2, "", "no policies selected"},
		{"repeated policy", []string{"-policy", "fifo,mcs,fifo"}, 2, "", `policy "fifo" listed twice`},
		{"bad value before profile", []string{"-protocols", "Nope", "-cpuprofile", unwritable}, 2, "", "unknown protocol"},
		{"unwritable cpuprofile", []string{"-iters", "1", "-cpuprofile", unwritable}, 1, "", "missing"},
		{"unwritable memprofile", []string{"-iters", "1", "-procs", "2", "-memprofile", unwritable}, 1, "all agree", "writing profile:"},
		{"one seed", []string{"-seed", "3", "-iters", "1", "-procs", "4"}, 0, "final=8399bdb2286bb01b", ""},
		{"the largest seed", []string{"-seed", "18446744073709551615", "-iters", "1", "-procs", "2"}, 0, "1 workloads, 4 protocols each, all agree", ""},
		{"fault seed with crashes", []string{"-iters", "1", "-procs", "2", "-crash-seed", "0", "-fault-seed", "7"}, 0, "1 workloads, 4 protocols each, all agree", ""},
		{"policy sweep", []string{"-iters", "1", "-procs", "2", "-policy", "fifo,lease"}, 0, "1 workloads, 4 protocols x 2 policies each, all agree", ""},
		{"profiled", []string{"-iters", "2", "-procs", "2", "-jobs", "1", "-cpuprofile", cpuProf, "-memprofile", memProf}, 0, "2 workloads, 4 protocols each, all agree", ""},
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
	for _, p := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s is missing or empty (%v)", p, err)
		}
	}
}
