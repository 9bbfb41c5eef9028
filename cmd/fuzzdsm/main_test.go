package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aecdsm/internal/check"
	"aecdsm/internal/fault"
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

// TestCrossPolicyDiffs holds the cross-policy check to the differential
// runner's rule: policies that disagree on the final checksum, on a
// phase's checksum or on the number of phases all fail the seed, in
// either order of the shorter and the longer run.
func TestCrossPolicyDiffs(t *testing.T) {
	rep := func(policy string, final uint64, phases ...uint64) *check.Report {
		return &check.Report{
			Workload: check.Workload{Policy: policy},
			Runs:     []check.ProtocolRun{{Final: final, Phases: phases}},
		}
	}
	for _, tc := range []struct {
		name string
		reps []*check.Report
		want []string
	}{
		{"agree", []*check.Report{rep("", 9, 1, 2), rep("mcs", 9, 1, 2)}, nil},
		{"no runs", []*check.Report{{}, rep("mcs", 9, 1, 2), rep("lease", 9, 1, 2)}, nil},
		{"final", []*check.Report{rep("", 9, 1, 2), rep("mcs", 8, 1, 2)},
			[]string{"final checksum mismatch across policies: fifo=0000000000000009 vs mcs=0000000000000008"}},
		{"phase", []*check.Report{rep("", 9, 1, 2), rep("mcs", 9, 1, 3)},
			[]string{"phase 1 checksum mismatch across policies: fifo=0000000000000002 vs mcs=0000000000000003"}},
		{"shorter", []*check.Report{rep("", 9, 1, 2), rep("mcs", 9, 1)},
			[]string{"phase count mismatch across policies: fifo=2 vs mcs=1"}},
		{"longer", []*check.Report{rep("", 9, 1), rep("lease", 9, 1, 2)},
			[]string{"phase count mismatch across policies: fifo=1 vs lease=2"}},
	} {
		if got := crossPolicyDiffs(tc.reps); !slices.Equal(got, tc.want) {
			t.Errorf("%s: crossPolicyDiffs = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestReproduceLineReplays renders the reproduce: line of failed reports
// with and without faults, crash clauses and a policy, and runs the
// command it names: the arguments parse, the passing seed exits 0, and
// the replay rebuilds the reported workload and fault schedule.
func TestReproduceLineReplays(t *testing.T) {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	crash := []fault.Crash{{Node: 1, At: 200_000, Down: 100_000}}
	schedule := func(fc fault.Config, seed uint64, crashes []fault.Crash) *fault.Config {
		fc.Seed, fc.Crashes = seed, crashes
		return &fc
	}
	for _, tc := range []struct {
		name   string
		seed   uint64
		policy string
		faults *fault.Config
	}{
		{"fault-free", 3, "", nil},
		{"policy", 3, "mcs", nil},
		{"faults", 4, "", schedule(light, 4+7, nil)},
		{"faults, crash and policy", 5, "lease", schedule(light, 5+9, crash)},
		{"crash only", 6, "", schedule(fault.Config{}, 6, crash)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := check.Generate(tc.seed, 0)
			w.Policy = tc.policy
			rep := &check.Report{Workload: w, Faults: tc.faults, Failures: []string{"planted"}}
			rendered := rep.String()
			_, line, ok := strings.Cut(rendered, "  reproduce: fuzzdsm ")
			if !ok {
				t.Fatalf("no reproduce line in\n%s", rendered)
			}
			args := strings.Fields(line)
			var out, errw bytes.Buffer
			if code := run(append(args, "-v"), &out, &errw); code != 0 {
				t.Fatalf("fuzzdsm %s: exit %d\n%s%s", line, code, out.String(), errw.String())
			}
			// The workload line and the fault schedule's line come first.
			want := strings.SplitAfter(rendered, "\n")[:1]
			if tc.faults != nil {
				want = strings.SplitAfter(rendered, "\n")[:2]
			}
			if got := out.String(); !strings.Contains(got, "seed "+args[1]+": ok\n"+strings.Join(want, "")) {
				t.Errorf("fuzzdsm %s printed\n%s\nwant the report's\n%s", line, got, strings.Join(want, ""))
			}
		})
	}
}
