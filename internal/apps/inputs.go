package apps

import "sync"

// Inputs memoizes the generated inputs of the programs one driver runs: the
// random input, the initial shared-memory image, the serial reference and
// any other host-side data an application derives from its Config before
// the run. A generated input is read-only and shared by every run of one
// driver (DESIGN.md): Init lays out the space and writes the shared bytes
// from it, a body only reads it, and no run writes it. So the 48 runs of a
// table sweep build each application's input once, and the differential
// checker builds a workload's schedule once for all its protocols.
//
// The zero value is ready to use and safe for concurrent runs: each key is
// built once, by the first run that asks for it, while later askers wait.
// A nil *Inputs builds every input for its own run alone (aecdsm.NewApp).
type Inputs struct {
	mu    sync.Mutex
	slots map[inputKey]*inputSlot
}

// inputKey identifies one generated input by everything it depends on.
type inputKey struct {
	app   string
	scale float64
	seed  uint64
	procs int         // 0 when the input does not depend on the machine size
	synth SynthConfig // the Synth workload's whole config; zero for the rest
}

type inputSlot struct {
	once sync.Once
	v    any
}

// built, when non-nil, is called with the key and value of every input a
// memo builds, just after building it; only tests set it (export_test.go).
var built func(k inputKey, v any)

// paperKey is the key of a paper application's input, which depends on the
// problem scale and the base seed only.
func paperKey(app string, cfg Config) inputKey {
	return inputKey{app: app, scale: cfg.Scale, seed: cfg.BaseSeed}
}

// load returns the input under k from the memo, building it first if no
// run has; with a nil memo it builds a private one.
func load[T any](in *Inputs, k inputKey, build func() *T) *T {
	if in == nil {
		return build()
	}
	in.mu.Lock()
	if in.slots == nil {
		in.slots = map[inputKey]*inputSlot{}
	}
	s := in.slots[k]
	if s == nil {
		s = new(inputSlot)
		in.slots[k] = s
	}
	in.mu.Unlock()
	s.once.Do(func() {
		v := build()
		s.v = v
		if built != nil {
			built(k, v)
		}
	})
	return s.v.(*T)
}
