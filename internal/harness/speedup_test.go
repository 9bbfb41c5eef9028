package harness

import (
	"os"
	"testing"

	"aecdsm/internal/apps"
)

// TestSpeedup exercises the scalability sweep. At test scale the problem
// is far too small to amortize SW-DSM overheads (the classic 1990s result:
// software DSMs need large problems), so only AEC-beats-TM is asserted.
func TestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine sweep")
	}
	e := NewExperiments(0.1)
	e.Speedup(os.Stdout, "Ocean")
	// The per-protocol ordering must hold at every machine size.
	params := e.Params
	params.MeshW, params.MeshH, params.NumProcs = 4, 2, 8
	a := Run(params, NewProtocol(ProtoAEC, 2), appsFactory("Ocean")(apps.Config{Scale: 0.1})).Must()
	tmr := Run(params, NewProtocol(ProtoTM, 2), appsFactory("Ocean")(apps.Config{Scale: 0.1})).Must()
	if a.Cycles() >= tmr.Cycles() {
		t.Errorf("AEC (%d) did not beat TM (%d) at 8 procs", a.Cycles(), tmr.Cycles())
	}
}
