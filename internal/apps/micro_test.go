package apps_test

import (
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
)

// TestMicroStencil verifies barrier-data coherence per step under every
// protocol, with and without interleaved critical sections.
func TestMicroStencil(t *testing.T) {
	for pname, mk := range protocols() {
		for _, withLock := range []bool{false, true} {
			app := apps.NewMicroStencil(6, withLock)
			res := harness.Run(memsys.Default(), mk(), app)
			if err := res.Err(); err != nil {
				t.Errorf("%s lock=%v: %v", pname, withLock, err)
			}
		}
	}
}

// TestMicroRMW verifies lock-protected read-modify-write chains with heavy
// page-level false sharing under every protocol (exact integer check).
func TestMicroRMW(t *testing.T) {
	for pname, mk := range protocols() {
		app := apps.NewMicroRMW(64, 3)
		res := harness.Run(memsys.Default(), mk(), app)
		if err := res.Err(); err != nil {
			t.Errorf("%s: %v", pname, err)
		}
	}
}

// TestMicroRMWSweep sweeps counter/round combinations under AEC and TM,
// the configurations that historically exposed step-boundary races.
func TestMicroRMWSweep(t *testing.T) {
	mks := []func() proto.Protocol{
		func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
		func() proto.Protocol { return aec.New(aec.Options{UseLAP: false, Ns: 2}) },
		func() proto.Protocol { return tm.New() },
	}
	for _, counters := range []int{8, 32, 64} {
		for _, rounds := range []int{1, 3} {
			for _, mk := range mks {
				pr := mk()
				app := apps.NewMicroRMW(counters, rounds)
				res := harness.Run(memsys.Default(), pr, app)
				if err := res.Err(); err != nil {
					t.Errorf("counters=%d rounds=%d: %v", counters, rounds, err)
				}
			}
		}
	}
}
