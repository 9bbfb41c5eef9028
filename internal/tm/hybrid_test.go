package tm_test

import (
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/stats"
	"aecdsm/internal/tm"
)

// TestLazyHybridCorrectness runs the full application suite and the
// integer stress programs under the Lazy Hybrid variant.
func TestLazyHybridCorrectness(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := harness.Run(memsys.Default(), tm.NewLazyHybrid(), apps.Registry[name](apps.Config{Scale: 0.1}))
			if res.Deadlocked {
				t.Fatal("deadlocked")
			}
			if res.VerifyErr != nil {
				t.Fatal(res.VerifyErr)
			}
		})
	}
	for _, mk := range []func() *tm.TM{tm.NewLazyHybrid} {
		res := harness.Run(memsys.Default(), mk(), apps.NewMicroRMW(64, 3))
		if res.Deadlocked || res.VerifyErr != nil {
			t.Fatalf("micro-rmw: dead=%v err=%v", res.Deadlocked, res.VerifyErr)
		}
		res = harness.Run(memsys.Default(), mk(), apps.NewMicroStencil(6, true))
		if res.Deadlocked || res.VerifyErr != nil {
			t.Fatalf("micro-stencil: dead=%v err=%v", res.Deadlocked, res.VerifyErr)
		}
	}
}

// TestLazyHybridReducesDiffFetches reproduces the §6 description: the
// piggybacked diffs remove remote diff fetches on the lock-transfer path.
func TestLazyHybridReducesDiffFetches(t *testing.T) {
	app := "Water-ns"
	base := harness.Run(memsys.Default(), tm.New(), apps.Registry[app](apps.Config{Scale: 0.1})).Must()
	lh := harness.Run(memsys.Default(), tm.NewLazyHybrid(), apps.Registry[app](apps.Config{Scale: 0.1})).Must()
	fetches := func(r *harness.Result) uint64 {
		return r.Run.Sum(func(p *stats.Proc) uint64 { return p.DiffRequests })
	}
	f0, f1 := fetches(base), fetches(lh)
	t.Logf("diff fetches: TM %d, TM-LH %d; cycles: TM %d, TM-LH %d",
		f0, f1, base.Cycles(), lh.Cycles())
	if f1 >= f0 {
		t.Errorf("Lazy Hybrid did not reduce diff fetches: %d -> %d", f0, f1)
	}
}
