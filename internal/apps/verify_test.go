package apps_test

import (
	"strings"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// runIdeal runs prog under the ideal protocol and returns its verification
// error.
func runIdeal(t *testing.T, prog proto.Program) error {
	t.Helper()
	res := harness.Run(memsys.Default(), harness.NewProtocol(harness.ProtoIdeal, 2), prog)
	if res.Deadlocked {
		t.Fatalf("%s deadlocked", prog.Name())
	}
	return res.VerifyErr
}

// TestConstructorDefaults: a zero or negative size takes the documented
// default.
func TestConstructorDefaults(t *testing.T) {
	if c := apps.NewCounter(0, -1, 0); c.Rounds != 4 || c.Counters != 64 || c.PerRound != 8 {
		t.Errorf("NewCounter(0, -1, 0) = %d rounds, %d counters, %d per round; want 4, 64, 8",
			c.Rounds, c.Counters, c.PerRound)
	}
	if s := apps.NewMicroStencil(0, true); s.Steps != 6 || !s.WithLock {
		t.Errorf("NewMicroStencil(0, true) = %d steps, lock %v; want 6, true", s.Steps, s.WithLock)
	}
	if r := apps.NewMicroRMW(-1, 0); r.Counters != 64 || r.Rounds != 3 {
		t.Errorf("NewMicroRMW(-1, 0) = %d counters, %d rounds; want 64, 3", r.Counters, r.Rounds)
	}
	s := apps.NewSynth(apps.SynthConfig{Seed: 9, PadWords: -3})
	want := apps.SynthConfig{Seed: 9, Locks: 1, CellsPerLock: 2, Phases: 1, OpsPerPhase: 1}
	if s.Cfg != want {
		t.Errorf("NewSynth normalised to %+v, want %+v", s.Cfg, want)
	}
	if sum := s.FinalChecksum(); sum != 0 {
		t.Errorf("FinalChecksum before any phase = %#x, want 0", sum)
	}
}

// TestRaytraceEdgeTiles: with a tile size that does not divide the image
// width, the last tile of each row is clipped to the image, and the image
// still matches the serial reference.
func TestRaytraceEdgeTiles(t *testing.T) {
	rt := apps.NewRaytrace(apps.Config{Scale: 0.05})
	rt.Tile = 24
	if rt.Width%rt.Tile == 0 {
		t.Fatalf("tile %d divides width %d", rt.Tile, rt.Width)
	}
	if err := runIdeal(t, rt); err != nil {
		t.Fatal(err)
	}
}

// oneShort lays its program out for one processor more than the machine
// has, so that processor's writes never happen.
type oneShort struct{ proto.Program }

func (o oneShort) Init(s *mem.Space, nprocs int) { o.Program.Init(s, nprocs+1) }

// TestVerifiersCatchABrokenRun: the programs that check their run against
// an invariant, not a serial reference, report a run whose shared memory
// starts with one wrong word (apps.BreakInit), and pass the same run
// without it. Synth also reports a stencil slot its processor never
// published (oneShort).
func TestVerifiersCatchABrokenRun(t *testing.T) {
	is := func() proto.Program {
		p := apps.Registry["IS"](apps.Config{Scale: 0.05}).(*apps.IS)
		p.Repeats = 1
		return p
	}
	synth := func() proto.Program {
		return apps.NewSynth(apps.SynthConfig{Seed: 1, Locks: 1, Phases: 1, OpsPerPhase: 2})
	}
	for _, tc := range []struct {
		mk   func() proto.Program
		want string
		brk  func(proto.Program) proto.Program // nil: apps.BreakInit
	}{
		{func() proto.Program { return apps.NewCounter(2, 16, 4) }, "counter: total", nil},
		{func() proto.Program { return apps.NewMicroStencil(2, false) }, "micro-stencil step 0", nil},
		{func() proto.Program { return apps.NewMicroRMW(16, 1) }, "micro-rmw: harvested", nil},
		{is, "is not a permutation", nil},
		{synth, "pair invariant broken", nil},
		{synth, "sees slot 16 = 0, want ", func(p proto.Program) proto.Program { return oneShort{p} }},
		{func() proto.Program { return apps.NewRaytrace(apps.Config{Scale: 0.05}) }, "1 ray packets leaked", nil},
	} {
		name := tc.mk().Name()
		if err := runIdeal(t, tc.mk()); err != nil {
			t.Errorf("%s: unbroken run failed verification: %v", name, err)
		}
		brk := tc.brk
		if brk == nil {
			brk = apps.BreakInit
		}
		err := runIdeal(t, brk(tc.mk()))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: broken run reported %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestWaterPotentialChecked: a Water run whose positions match the
// reference but whose potential does not fails verification.
func TestWaterPotentialChecked(t *testing.T) {
	for _, name := range []string{"Water-ns", "Water-sp"} {
		prog := apps.Registry[name](apps.Config{Scale: 0.05, Inputs: new(apps.Inputs)})
		apps.PerturbPotential(prog)
		err := runIdeal(t, prog)
		if err == nil || !strings.HasPrefix(err.Error(), name+": potential") {
			t.Errorf("%s: run against a perturbed potential reported %v", name, err)
		}
	}
}
