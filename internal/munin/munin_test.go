package munin_test

import (
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/munin"
	"aecdsm/internal/stats"
)

func TestMuninCorrectnessMicro(t *testing.T) {
	for _, lap := range []bool{false, true} {
		for _, prog := range []interface {
			Name() string
		}{} {
			_ = prog
		}
		// Stencil with and without interleaved critical sections.
		for _, withLock := range []bool{false, true} {
			app := apps.NewMicroStencil(6, withLock)
			res := harness.Run(memsys.Default(), munin.New(munin.Options{UseLAP: lap}), app)
			if res.Deadlocked {
				t.Fatalf("lap=%v lock=%v deadlocked", lap, withLock)
			}
			if res.VerifyErr != nil {
				t.Errorf("lap=%v lock=%v: %v", lap, withLock, res.VerifyErr)
			}
		}
		// Integer RMW with page-level false sharing.
		app := apps.NewMicroRMW(64, 3)
		res := harness.Run(memsys.Default(), munin.New(munin.Options{UseLAP: lap}), app)
		if res.Deadlocked || res.VerifyErr != nil {
			t.Errorf("rmw lap=%v: dead=%v err=%v", lap, res.Deadlocked, res.VerifyErr)
		}
	}
}

// TestMuninAllApps runs the full application suite under both Munin
// variants at test scale — the same end-to-end coherence bar the other
// protocols pass.
func TestMuninAllApps(t *testing.T) {
	for _, name := range apps.Names() {
		for _, lap := range []bool{false, true} {
			name, lap := name, lap
			t.Run(name, func(t *testing.T) {
				res := harness.Run(memsys.Default(),
					munin.New(munin.Options{UseLAP: lap}), apps.Registry[name](apps.Config{Scale: 0.1}))
				if res.Deadlocked {
					t.Fatal("deadlocked")
				}
				if res.VerifyErr != nil {
					t.Fatalf("lap=%v: %v", lap, res.VerifyErr)
				}
			})
		}
	}
}

// TestLAPRestrictsUpdateTraffic reproduces the paper's §1 claim: applying
// LAP to a Munin-style protocol restricts its update traffic — the bytes
// of diff updates pushed at releases drop sharply because only the
// predicted next acquirers are updated. (Total traffic is a trade-off:
// invalidated sharers refetch whole pages on their next access, which for
// small-diff workloads can exceed the update savings; the test logs both.)
func TestLAPRestrictsUpdateTraffic(t *testing.T) {
	for _, app := range []string{"IS", "Water-ns"} {
		base := harness.Run(memsys.Default(), munin.New(munin.Options{}),
			apps.Registry[app](apps.Config{Scale: 0.1})).Must()
		withLAP := harness.Run(memsys.Default(), munin.New(munin.Options{UseLAP: true, Ns: 2}),
			apps.Registry[app](apps.Config{Scale: 0.1})).Must()

		updates := func(r *harness.Result) uint64 {
			return r.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdateBytesPushed })
		}
		total := func(r *harness.Result) uint64 {
			return r.Run.Sum(func(p *stats.Proc) uint64 { return p.BytesSent })
		}
		u0, u1 := updates(base), updates(withLAP)
		t.Logf("%s: update traffic %d -> %d bytes (%.1f%%); total %d -> %d",
			app, u0, u1, 100*float64(u1)/float64(u0), total(base), total(withLAP))
		if u1 >= u0 {
			t.Errorf("%s: LAP did not reduce Munin's update traffic: %d -> %d bytes", app, u0, u1)
		}
	}
}

func TestMuninNames(t *testing.T) {
	if munin.New(munin.Options{}).Name() != "Munin" {
		t.Fatal("name")
	}
	if munin.New(munin.Options{UseLAP: true}).Name() != "Munin+LAP" {
		t.Fatal("lap name")
	}
}

// TestMunin64Procs guards the removal of the 32-processor copyset cap:
// the sharer sets are growable bitsets, so update distribution works on
// a 64-node (8x8) mesh, with and without the scaling architecture.
func TestMunin64Procs(t *testing.T) {
	flat := memsys.Default().ForProcs(64)
	scaled := flat
	scaled.BarrierRadix = 16
	scaled.ShardHomes = true
	scaled.ShardManagers = true
	for _, tc := range []struct {
		name string
		p    memsys.Params
	}{{"flat", flat}, {"scaled", scaled}} {
		t.Run(tc.name, func(t *testing.T) {
			res := harness.Run(tc.p, munin.New(munin.Options{UseLAP: true}), apps.NewCounter(3, 64, 8))
			if res.Deadlocked {
				t.Fatal("deadlocked")
			}
			if res.VerifyErr != nil {
				t.Fatal(res.VerifyErr)
			}
		})
	}
}
