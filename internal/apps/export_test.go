package apps

import (
	"math"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
)

// OnInputBuilt calls fn with the application, key and value of every input
// a memo builds until the test ends: the count seam of the sharing tests.
// fn may be called from concurrent runs.
func OnInputBuilt(t testing.TB, fn func(app string, key, v any)) {
	built = func(k inputKey, v any) { fn(k.app, k, v) }
	t.Cleanup(func() { built = nil })
}

// PerturbReference changes one element of the reference that prog, one of
// the six paper applications, verifies its result against. prog must have
// been built with a memo (Config.Inputs), which its Init then reads the
// perturbed input from.
func PerturbReference(prog proto.Program) {
	switch a := prog.(type) {
	case *IS:
		// The verifier looks up each rank's key here. Raising one of the
		// smallest keys above every other puts it early in the ranked
		// order with smaller keys after it.
		in := a.input()
		low := 0
		for i, k := range in.keys {
			if k < in.keys[low] {
				low = i
			}
		}
		in.keys[low] = int32(a.MaxKey)
	case *Raytrace:
		a.input().want[0]++
	case *WaterNS:
		a.input().wantPos[0].x++
	case *FFT:
		a.input().want[0]++
	case *Ocean:
		a.input().want[a.dim()+1]++ // the first interior cell
	case *WaterSP:
		a.input().wantPos[0].x++
	default:
		panic("apps: no reference to perturb in " + prog.Name())
	}
}

// PerturbPotential changes the reference potential of prog, Water-ns or
// Water-sp, by a thousandth, leaving the reference positions alone. prog
// must have been built with a memo, as for PerturbReference.
func PerturbPotential(prog proto.Program) {
	var in *waterInput
	switch a := prog.(type) {
	case *WaterNS:
		in = a.input()
	case *WaterSP:
		in = a.input()
	default:
		panic("apps: no reference potential in " + prog.Name())
	}
	in.wantPot += 1e-3 * math.Max(1, math.Abs(in.wantPot))
}

// BreakInit wraps prog, one of the programs whose verifier checks its run
// against an invariant instead of a serial reference, so that its Init
// leaves one word of the shared memory's initial image at 1 instead of 0:
// the first counter (Counter, MicroRMW), the first stencil slot
// (MicroStencil), the first bucket count (IS, which the first ranking
// reads; with more than one repetition the reset before the last one
// hides it), the second cell of lock 0's pair (Synth) or the ray-packet
// count (Raytrace).
func BreakInit(prog proto.Program) proto.Program { return brokenInit{prog} }

type brokenInit struct{ proto.Program }

func (b brokenInit) Init(s *mem.Space, nprocs int) {
	b.Program.Init(s, nprocs)
	var at mem.Addr
	switch a := b.Program.(type) {
	case *Counter:
		at = a.base
	case *MicroRMW:
		at = a.base
	case *MicroStencil:
		at = a.base
	case *IS:
		at = a.bucketA
	case *Synth:
		at = a.regionA[0] + 8
	case *Raytrace:
		at = a.memA
	default:
		panic("apps: no invariant to break in " + b.Name())
	}
	s.WriteInit(at, []byte{1, 0, 0, 0})
}
