package check

import (
	"fmt"
	"slices"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/lockpolicy"
)

// TestAuditorBoundedBypass drives the policy-aware queue rule with
// hand-built streams: under a reordering policy any queued waiter may
// win, but the MaxBypass starvation bound is hard.
func TestAuditorBoundedBypass(t *testing.T) {
	t.Run("within-bound", func(t *testing.T) {
		a := NewAuditor(8)
		a.SetPolicy(lockpolicy.Affinity)
		a.Trace(enqueueEv(0, 1))
		for i := 0; i < lockpolicy.MaxBypass; i++ {
			p := 2 + i
			a.Trace(enqueueEv(0, p))
			a.Trace(grantEv(0, p)) // bypasses waiter 1, still legal
			a.Trace(releaseEv(0, p))
		}
		a.Trace(grantEv(0, 1))
		if vs := a.Violations(); len(vs) != 0 {
			t.Fatalf("bypasses within the bound flagged: %v", vs)
		}
	})
	t.Run("bound-exceeded", func(t *testing.T) {
		a := NewAuditor(8)
		a.SetPolicy(lockpolicy.Lease)
		a.Trace(enqueueEv(0, 1))
		for i := 0; i <= lockpolicy.MaxBypass; i++ {
			p := 2 + i
			a.Trace(enqueueEv(0, p))
			a.Trace(grantEv(0, p))
			a.Trace(releaseEv(0, p))
		}
		if len(a.Violations()) == 0 {
			t.Fatalf("waiter bypassed %d times not flagged (bound %d)",
				lockpolicy.MaxBypass+1, lockpolicy.MaxBypass)
		}
	})
	t.Run("mcs-still-strict", func(t *testing.T) {
		a := NewAuditor(4)
		a.SetPolicy(lockpolicy.MCS)
		a.Trace(enqueueEv(0, 1))
		a.Trace(enqueueEv(0, 2))
		a.Trace(grantEv(0, 2))
		if len(a.Violations()) == 0 {
			t.Fatal("out-of-order grant under mcs not flagged")
		}
	})
}

// TestPoliciesAgreeDifferentially is the cross-policy differential
// criterion of docs/LOCKING.md: on the same seed, every grant discipline
// must run the full protocol comparison cleanly AND produce bit-identical
// barrier-phase checksums, fault-free and under an injected fault
// schedule — grant order is the only degree of freedom a policy has.
func TestPoliciesAgreeDifferentially(t *testing.T) {
	seeds := []uint64{3, 17, 29}
	if testing.Short() {
		seeds = seeds[:1]
	}
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		for _, fcfg := range []*fault.Config{nil, &light} {
			name := fmt.Sprintf("seed%d", seed)
			if fcfg != nil {
				fc := *fcfg
				fc.Seed = seed
				fcfg = &fc
				name += "-faulted"
			}
			t.Run(name, func(t *testing.T) {
				var reps []*Report
				for _, k := range lockpolicy.Kinds() {
					w := Generate(seed, 0)
					w.Policy = string(k)
					rep := RunWorkloadFault(w, DefaultProtocols(), fcfg)
					if rep.Failed() {
						t.Fatalf("policy %s failed:\n%s", k, rep)
					}
					reps = append(reps, rep)
				}
				for _, d := range CrossPolicy(reps) {
					t.Error(d)
				}
			})
		}
	}
}

// TestCrossPolicyDiffs holds the cross-policy check to the differential
// runner's rule: every policy is compared with the first that ran (a
// report without runs is skipped), in the order the policies came, and a
// final checksum that differs does not hide a phase that differs.
func TestCrossPolicyDiffs(t *testing.T) {
	rep := func(policy string, final uint64, phases ...uint64) *Report {
		return &Report{
			Workload: Workload{Policy: policy},
			Runs:     []ProtocolRun{{Final: final, Phases: phases}},
		}
	}
	for _, tc := range []struct {
		name string
		reps []*Report
		want []string
	}{
		{"agree", []*Report{rep("", 9, 1, 2), rep("mcs", 9, 1, 2)}, nil},
		{"no runs", []*Report{{}, rep("mcs", 9, 1, 2), rep("lease", 9, 1, 3)},
			[]string{"phase 1 checksum mismatch: mcs=0000000000000002 vs lease=0000000000000003"}},
		{"longer", []*Report{rep("", 9, 1), rep("lease", 9, 1, 2)},
			[]string{"phase count mismatch: fifo=1 vs lease=2"}},
		{"final and phase", []*Report{rep("", 9, 1, 2), rep("mcs", 8, 0, 2)}, []string{
			"final checksum mismatch: fifo=0000000000000009 vs mcs=0000000000000008",
			"phase 0 checksum mismatch: fifo=0000000000000001 vs mcs=0000000000000000",
		}},
		{"each against the first", []*Report{rep("", 9, 1), rep("mcs", 9, 1), rep("lease", 8, 1)},
			[]string{"final checksum mismatch: fifo=0000000000000009 vs lease=0000000000000008"}},
	} {
		if got := CrossPolicy(tc.reps); !slices.Equal(got, tc.want) {
			t.Errorf("%s: CrossPolicy = %q, want %q", tc.name, got, tc.want)
		}
	}
}
