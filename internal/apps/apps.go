// Package apps contains the application workload of the reproduction: the
// six SPMD programs of Table 2 of the AEC paper (IS, Raytrace,
// Water-nsquared, FFT, Ocean, Water-spatial) re-implemented against the
// DSM context API, each verifying its results against a serial reference,
// plus small synthetic programs used by tests and examples.
//
// The applications reproduce the synchronization and sharing structure the
// protocols care about — per-molecule locks, task queues with stealing,
// barrier-phased stencils — at problem sizes that keep simulation fast.
package apps

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"aecdsm/internal/proto"
)

// Rand is a small deterministic PRNG (xorshift64*), so runs are
// reproducible regardless of Go's math/rand evolution.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed must be non-zero (0 is fixed up).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Next returns the next raw 64-bit value.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Config carries the construction parameters every application factory
// receives. There is deliberately no process-global RNG state: every
// random stream derives from the Config held by one program instance, so
// runs can execute concurrently (the parallel experiment scheduler in
// internal/harness depends on this); the one thing they may share, the
// memo in Inputs, is built once and then only read.
type Config struct {
	// Scale shrinks problem sizes ((0,1]; 1.0 = the paper's
	// configuration; out-of-range values are clamped to 1.0).
	Scale float64
	// BaseSeed is the root every RNG stream of the program derives from.
	// Zero (the default) leaves each stream on its historical per-app
	// constant, keeping checked-in full-scale results valid; a non-zero
	// base perturbs all streams deterministically (determinism tests and
	// fuzzing vary it instead of touching per-app code).
	BaseSeed uint64
	// Inputs is the memo the program's generated input comes from, shared
	// with every other run of the same driver; nil generates it for this
	// run alone.
	Inputs *Inputs
}

// Stream is the single seedable source behind an application's
// randomness: it derives a generator for one named stream (the app's
// historical seed constant) from the run's base seed.
func (c Config) Stream(stream uint64) *Rand {
	return seedStream(c.BaseSeed, stream)
}

// seedStream combines a base seed with a stream constant.
func seedStream(base, stream uint64) *Rand {
	if base == 0 {
		return NewRand(stream)
	}
	// splitmix64 finalizer over the combined seeds: decorrelates streams
	// even for adjacent base values.
	z := stream ^ (base + 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return NewRand(z ^ (z >> 31))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// verifier accumulates verification errors from SPMD bodies. A run's
// simulated processors are coroutines of its engine's goroutine and never
// run concurrently; the mutex is belt-and-braces for the Err reader, since
// parallel engines share the process.
type verifier struct {
	mu  sync.Mutex
	err error
}

func (v *verifier) fail(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first recorded failure.
func (v *verifier) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// Registry maps application names to factories. A factory builds a fresh
// program instance for one run from its Config (problem scale plus the
// base seed of its random streams). Instances share no mutable state —
// what they share through Config.Inputs is read-only — so distinct runs
// may execute on concurrent engines.
var Registry = map[string]func(cfg Config) proto.Program{}

// Names returns the registered application names, sorted, paper order
// first for the six paper apps.
func Names() []string {
	paper := []string{"IS", "Raytrace", "Water-ns", "FFT", "Ocean", "Water-sp"}
	var out []string
	for _, n := range paper {
		if _, ok := Registry[n]; ok {
			out = append(out, n)
		}
	}
	var rest []string
	for n := range Registry {
		if !slices.Contains(out, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// CheckScale rejects a problem scale that arrives from outside the program
// (a command's -scale) and lies outside (0, 1]: the factories would clamp
// it to 1.0 and silently run the paper-size problem.
func CheckScale(s float64) error {
	if !(s > 0 && s <= 1) {
		return fmt.Errorf("scale %v is outside (0, 1]", s)
	}
	return nil
}

func clampScale(s float64) float64 {
	if s <= 0 || s > 1 {
		return 1
	}
	return s
}

func scaled(n int, scale float64, minimum int) int {
	v := int(float64(n) * clampScale(scale))
	if v < minimum {
		return minimum
	}
	return v
}

// LockGroup names a contiguous range of lock variables [Lo, Hi) that are
// logically related in an application (Table 3 groups lock variables this
// way, e.g. Raytrace's task-queue locks or Water-nsquared's per-molecule
// locks).
type LockGroup struct {
	Name   string
	Lo, Hi int
}

// LockGrouper is implemented by applications that describe their lock
// variables for per-group LAP success-rate reporting.
type LockGrouper interface {
	LockGroups() []LockGroup
}
