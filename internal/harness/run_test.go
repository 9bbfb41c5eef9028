package harness

import (
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
)

// protocolsUnderTest builds one fresh instance of every protocol.
func protocolsUnderTest() []proto.Protocol {
	return []proto.Protocol{
		proto.NewIdeal(1),
		aec.New(aec.DefaultOptions()),
		aec.New(aec.Options{UseLAP: false, Ns: 2}),
		tm.New(),
	}
}

func TestCounterAllProtocols(t *testing.T) {
	params := memsys.Default()
	for _, pr := range protocolsUnderTest() {
		pr := pr
		t.Run(pr.Name(), func(t *testing.T) {
			res := Run(params, pr, apps.NewCounter(4, 64, 8))
			if res.Deadlocked {
				t.Fatal("simulation deadlocked")
			}
			if res.VerifyErr != nil {
				t.Fatalf("verification failed: %v", res.VerifyErr)
			}
			if res.Cycles() == 0 {
				t.Fatal("no cycles elapsed")
			}
			bd := res.Run.TotalBreakdown()
			if bd.Total() == 0 {
				t.Fatal("empty execution breakdown")
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	params := memsys.Default()
	r1 := Run(params, aec.New(aec.DefaultOptions()), apps.NewCounter(3, 32, 4))
	r2 := Run(params, aec.New(aec.DefaultOptions()), apps.NewCounter(3, 32, 4))
	if r1.Cycles() != r2.Cycles() {
		t.Fatalf("nondeterministic: %d vs %d cycles", r1.Cycles(), r2.Cycles())
	}
	for i := range r1.Run.Procs {
		if r1.Run.Procs[i].Breakdown != r2.Run.Procs[i].Breakdown {
			t.Fatalf("proc %d breakdown differs between identical runs", i)
		}
	}
}

// TestIdealSizedByProgram: the ideal protocol's lock table comes from the
// program through compose (proto.NumLocksProvider), not from a constant in
// NewProtocol, so a program with more locks than any constant runs.
func TestIdealSizedByProgram(t *testing.T) {
	res := Run(memsys.Default().ForProcs(4), NewProtocol(ProtoIdeal, 2), apps.NewMicroRMW(5000, 1))
	if res.Deadlocked || res.VerifyErr != nil {
		t.Fatalf("micro-rmw with 5000 locks under ideal: deadlocked=%v, verify: %v", res.Deadlocked, res.VerifyErr)
	}
}
