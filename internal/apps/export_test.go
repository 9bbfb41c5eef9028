package apps

import (
	"testing"

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
