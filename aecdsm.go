// Package aecdsm is a reproduction of "The Affinity Entry Consistency
// Protocol" (Seidel, Bianchini, Amorim; ICPP 1997): a software-only
// distributed shared-memory (SW-DSM) protocol based on Entry Consistency
// that eagerly generates diffs, hides their cost behind synchronization
// delays, and uses Lock Acquirer Prediction (LAP) to push updates to the
// predicted next acquirer of a lock before it asks for them.
//
// The package bundles:
//
//   - an execution-driven simulator of a 16-node network of workstations
//     (mesh interconnect, caches, TLBs, buses — the Table 1 cost model);
//   - the AEC protocol (with and without LAP), a TreadMarks-style lazy
//     release consistency baseline, and an ideal zero-cost memory;
//   - the paper's six applications (IS, Raytrace, Water-nsquared, FFT,
//     Ocean, Water-spatial) re-implemented on the DSM API and verified
//     against serial references;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation section.
//
// Quick start:
//
//	res, err := aecdsm.Run(aecdsm.Config{Protocol: "AEC", App: "IS"})
//	fmt.Println(res.Cycles(), "simulated cycles")
//
// Full evaluation:
//
//	aecdsm.NewExperiments(1.0).All(os.Stdout)
package aecdsm

import (
	"fmt"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// Params holds the simulated system parameters (Table 1 of the paper).
type Params = memsys.Params

// Result is the outcome of one simulation run.
type Result = harness.Result

// Experiments drives the paper's tables and figures.
type Experiments = harness.Experiments

// Program is an SPMD application runnable on the simulated DSM.
type Program = proto.Program

// Protocol is a software DSM coherence protocol implementation.
type Protocol = proto.Protocol

// Ctx is the DSM context application bodies program against.
type Ctx = proto.Ctx

// DefaultParams returns the paper's Table 1 configuration: 16 processors
// on a 4x4 wormhole mesh, 4KB pages, 256KB caches.
func DefaultParams() Params { return memsys.Default() }

// Protocols lists the available protocol names.
func Protocols() []string {
	var names []string
	for _, k := range harness.Kinds() {
		names = append(names, string(k))
	}
	return names
}

// Apps lists the registered application names (the paper's six first).
func Apps() []string { return apps.Names() }

// NewProtocol builds a protocol by name. ns is the LAP update-set size of
// AEC and Munin+LAP (0 = the paper's 2); a negative size is an error.
func NewProtocol(name string, ns int) (Protocol, error) {
	if ns < 0 {
		return nil, fmt.Errorf("aecdsm: update-set size %d is negative", ns)
	}
	if ns == 0 {
		ns = 2
	}
	kind, err := harness.ParseKind(name)
	if err != nil {
		return nil, fmt.Errorf("aecdsm: %w", err)
	}
	return harness.NewProtocol(kind, ns), nil
}

// NewApp builds an application by name at the given problem scale
// ((0,1]; 1.0 = the paper's configuration). A scale outside (0,1] is an
// error.
func NewApp(name string, scale float64) (Program, error) {
	return NewAppSeeded(name, scale, 0)
}

// NewAppSeeded is NewApp with an explicit base seed perturbing every RNG
// stream of the application (zero keeps the historical streams).
func NewAppSeeded(name string, scale float64, baseSeed uint64) (Program, error) {
	factory, ok := apps.Registry[name]
	if !ok {
		return nil, fmt.Errorf("aecdsm: unknown app %q (have %v)", name, Apps())
	}
	if err := apps.CheckScale(scale); err != nil {
		return nil, fmt.Errorf("aecdsm: %w", err)
	}
	return factory(apps.Config{Scale: scale, BaseSeed: baseSeed}), nil
}

// Config selects what to simulate.
type Config struct {
	// Params are the system parameters; zero value means DefaultParams.
	Params Params
	// Protocol is one of Protocols(); default "AEC".
	Protocol string
	// App is one of Apps(); default "IS".
	App string
	// Scale shrinks the problem size ((0,1]; 0 means the default 1.0, any
	// other value outside (0,1] is an error).
	Scale float64
	// Ns is the LAP update-set size of AEC and Munin+LAP (0 = default 2;
	// negative is an error).
	Ns int
	// TraceSink, when non-nil, receives every protocol event of the run
	// (see the Tracer type and NewTraceRing / NewJSONLTracer /
	// NewChromeTracer / NewTraceMetrics constructors). Tracing never
	// charges simulated cycles, so the measured results are identical
	// with or without a sink.
	TraceSink Tracer
	// Faults, when non-empty, enables deterministic fault injection: a
	// preset name ("light", "heavy") or a clause list like
	// "drop=0.05,dup=0.02,delay=0.05:8000". The empty string disables
	// injection entirely and leaves every measurement byte-identical to
	// earlier releases. See docs/ROBUSTNESS.md.
	Faults string
	// FaultSeed seeds the fault schedule (only meaningful with Faults).
	FaultSeed uint64
}

// Run simulates one application under one protocol and returns the
// measurements (execution breakdown, fault/diff/LAP statistics). A run
// that did not finish and verify returns its measurements with its
// Result.Err, prefixed "aecdsm: ".
func Run(cfg Config) (*Result, error) {
	if cfg.Params.NumProcs == 0 {
		cfg.Params = DefaultParams()
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "AEC"
	}
	if cfg.App == "" {
		cfg.App = "IS"
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	pr, err := NewProtocol(cfg.Protocol, cfg.Ns)
	if err != nil {
		return nil, err
	}
	prog, err := NewApp(cfg.App, cfg.Scale)
	if err != nil {
		return nil, err
	}
	var fcfg *fault.Config
	if cfg.Faults != "" {
		fc, err := fault.ParseSpec(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("aecdsm: %w", err)
		}
		fc.Seed = cfg.FaultSeed
		fcfg = &fc
	}
	return verdict(harness.RunFaultTraced(cfg.Params, pr, prog, cfg.TraceSink, fcfg))
}

// RunProgram simulates a caller-supplied Program (see proto.Program for
// the interface) under the named protocol, with Run's verdict.
func RunProgram(params Params, protocol string, prog Program) (*Result, error) {
	if params.NumProcs == 0 {
		params = DefaultParams()
	}
	pr, err := NewProtocol(protocol, 2)
	if err != nil {
		return nil, err
	}
	return verdict(harness.Run(params, pr, prog))
}

// verdict returns res with its Err, if any, as this package's error.
func verdict(res *Result) (*Result, error) {
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("aecdsm: %w", err)
	}
	return res, nil
}

// NewExperiments builds the driver that regenerates the paper's tables and
// figures at the given problem scale.
func NewExperiments(scale float64) *Experiments {
	return harness.NewExperiments(scale)
}
