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

// TestFullScale runs every application at the paper's problem sizes under
// AEC and TreadMarks and checks results and the AEC<TM ordering the paper
// reports for 5 of 6 applications.
func TestFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs take tens of seconds")
	}
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var aecCycles, tmCycles uint64
			for _, mk := range []func() proto.Protocol{
				func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
				func() proto.Protocol { return tm.New() },
			} {
				pr := mk()
				res := harness.Run(memsys.Default(), pr, apps.Registry[name](apps.Config{Scale: 1.0}))
				if err := res.Err(); err != nil {
					t.Fatalf("%s: %v", pr.Name(), err)
				}
				switch pr.Name() {
				case "AEC":
					aecCycles = res.Cycles()
				case "TM":
					tmCycles = res.Cycles()
				}
			}
			if aecCycles >= tmCycles {
				t.Errorf("AEC (%d cycles) did not beat TM (%d cycles)", aecCycles, tmCycles)
			}
		})
	}
}
