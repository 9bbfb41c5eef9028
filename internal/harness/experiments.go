package harness

import (
	"fmt"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/lap"
	"aecdsm/internal/memsys"
	"aecdsm/internal/munin"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
	"aecdsm/internal/trace"
)

// ProtocolKind selects which protocol an experiment run uses.
type ProtocolKind string

// Protocol kinds available to experiments.
const (
	ProtoAEC      ProtocolKind = "AEC"
	ProtoAECNoLAP ProtocolKind = "AEC-noLAP"
	ProtoTM       ProtocolKind = "TM"
	ProtoTMLH     ProtocolKind = "TM-LH"
	ProtoMunin    ProtocolKind = "Munin"
	ProtoMuninLAP ProtocolKind = "Munin+LAP"
	ProtoIdeal    ProtocolKind = "ideal"
)

// Kinds lists every protocol kind: the DSM protocols in the paper's order,
// the ideal machine last. It is the one list behind aecdsm.Protocols,
// the differential fuzzer's protocol names and the all-protocol tables.
func Kinds() []ProtocolKind {
	return []ProtocolKind{ProtoAEC, ProtoAECNoLAP, ProtoTM, ProtoTMLH, ProtoMunin, ProtoMuninLAP, ProtoIdeal}
}

// ParseKind resolves a protocol name that arrives from outside the
// program (a CLI flag, a Config field).
func ParseKind(name string) (ProtocolKind, error) {
	for _, k := range Kinds() {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown protocol %q (have %v)", name, Kinds())
}

// runSpec identifies one memoized simulation by everything that decides
// its outcome besides the Experiments' Scale and BaseSeed, which are
// fixed before the first run. It is comparable: the memo cache's key.
type runSpec struct {
	app       string           // apps.Registry name; "" runs synth instead
	synth     apps.SynthConfig // the apps.NewSynth workload when app == ""
	proto     ProtocolKind
	ns        int
	params    memsys.Params
	faults    string // fault.ParseSpec preset or clause list; "" = fault-free
	faultSeed uint64
	metrics   bool // trace into a trace.Metrics of the run's own and keep its lock summaries
}

// Experiments runs and memoizes the simulations behind every table,
// figure and sweep. Scale in (0,1] shrinks the application problem sizes
// (1.0 = the paper's configuration).
//
// Every driver has one shape: it builds the run specs it needs (what to
// run, on which machine, under which fault schedule), submits them to the
// prefetching scheduler (sched.go), which executes the uncached ones on a
// worker pool of up to Jobs concurrent engines, then formats its output
// sequentially from the memo cache — so the rendered bytes are identical
// at every job count, and no spec is simulated twice.
type Experiments struct {
	// Params is the machine the paper's tables run on. It is part of every
	// run spec, so changing it between calls runs new simulations.
	Params memsys.Params
	Scale  float64

	// BaseSeed perturbs every application RNG stream (see apps.Config);
	// zero keeps the historical streams behind the checked-in results.
	BaseSeed uint64

	// Jobs bounds how many simulations the scheduler runs concurrently:
	// 0 means GOMAXPROCS, 1 forces strictly sequential execution. With a
	// Tracer attached the scheduler always runs sequentially so the
	// combined event stream keeps its deterministic order.
	Jobs int

	// Tracer, when non-nil, is attached to every simulation the driver
	// runs, tables and sweeps alike. Because runs are memoized, each spec
	// traces at most once.
	Tracer trace.Tracer

	// sched owns the memo cache and the worker pool; every cache access
	// goes through its mutex so Experiments methods may be called from
	// concurrent goroutines (sched.go).
	sched scheduler

	// inputs holds the applications' generated inputs, built once and
	// shared read-only by every run this driver makes (apps.Inputs).
	inputs apps.Inputs
}

// lapRow is the Table 3 data for one lock group.
type lapRow struct {
	Group     string
	Events    uint64
	Full      float64
	WaitQ     float64
	WaitAff   float64
	WaitVirt  float64
	Evaluated uint64
}

// NewExperiments builds an experiment driver with the paper's default
// system parameters.
func NewExperiments(scale float64) *Experiments {
	e := &Experiments{Params: memsys.Default(), Scale: scale}
	e.sched.cache = map[runSpec]runOutcome{}
	return e
}

// NewProtocol builds a fresh protocol instance of the given kind with
// update-set size ns (where applicable). Each run needs its own instance;
// protocols keep per-run state. It panics on a kind that is not one of
// Kinds; names from outside the program go through ParseKind first.
func NewProtocol(kind ProtocolKind, ns int) proto.Protocol {
	switch kind {
	case ProtoAEC:
		return aec.New(aec.Options{UseLAP: true, Ns: ns})
	case ProtoAECNoLAP:
		return aec.New(aec.Options{UseLAP: false, Ns: ns})
	case ProtoTM:
		return tm.New()
	case ProtoTMLH:
		return tm.NewLazyHybrid()
	case ProtoMunin:
		return munin.New(munin.Options{})
	case ProtoMuninLAP:
		return munin.New(munin.Options{UseLAP: true, Ns: ns})
	case ProtoIdeal:
		return proto.NewIdeal(0) // sized by compose, through SetNumLocks
	}
	panic("harness: unknown protocol kind " + string(kind))
}

// spec is the run the paper's tables make: a registry application on the
// Experiments' machine, fault-free.
func (e *Experiments) spec(app string, kind ProtocolKind, ns int) runSpec {
	return runSpec{app: app, proto: kind, ns: ns, params: e.Params}
}

// Run returns the memoized result of app under the protocol kind (Ns=2).
func (e *Experiments) Run(app string, kind ProtocolKind) *Result {
	return e.RunNs(app, kind, 2)
}

// RunNs is Run with an explicit update set size. It is safe to call from
// concurrent goroutines; distinct Experiments instances never share
// state.
func (e *Experiments) RunNs(app string, kind ProtocolKind, ns int) *Result {
	return &Result{Run: e.outcome(e.spec(app, kind, ns)).run}
}

// program builds a fresh instance of the program a spec names; programs
// keep per-run state, so every run (and the timeline's sampling run)
// needs its own. Their generated inputs come from the driver's memo.
func (e *Experiments) program(spec runSpec) proto.Program {
	if spec.app == "" {
		return apps.NewSharedSynth(spec.synth, &e.inputs)
	}
	return appsFactory(spec.app)(apps.Config{Scale: e.Scale, BaseSeed: e.BaseSeed, Inputs: &e.inputs})
}

// runOne executes the simulation behind one run spec — a pure, isolated
// unit touching no Experiments state besides the immutable configuration,
// so the scheduler may run many of these concurrently — and keeps what
// the renderers read, dropping the program and protocol instances. A run
// that does not finish and verify panics (Result.Must): it would
// invalidate the whole table.
func (e *Experiments) runOne(spec runSpec) runOutcome {
	prog, pr := e.program(spec), NewProtocol(spec.proto, spec.ns)
	var fcfg *fault.Config
	if spec.faults != "" {
		c, err := fault.ParseSpec(spec.faults)
		if err != nil {
			panic("harness: fault spec " + spec.faults + ": " + err.Error())
		}
		c.Seed = spec.faultSeed
		fcfg = &c
	}
	tr := e.Tracer
	var m *trace.Metrics
	if spec.metrics {
		m = trace.NewMetrics()
		tr = trace.Multi(tr, m)
	}
	res := RunFaultTraced(spec.params, pr, prog, tr, fcfg).Must()
	out := runOutcome{run: res.Run, numLocks: prog.NumLocks(), lap: harvestLAP(pr, prog)}
	if m != nil {
		out.locks = m.Summary().Locks
	}
	return out
}

// lapReporter is implemented by protocols whose lock managers record Lock
// Acquirer Prediction statistics (AEC natively; TreadMarks passively, for
// the §5.1 cross-protocol robustness study).
type lapReporter interface {
	NumLocks() int
	LockLAP(lock int) lap.Stats
}

// harvestLAP aggregates the per-lock LAP statistics a finished run left in
// its protocol instance into the program's lock groups, weighting by
// acquire events as the paper does. It returns nil for a protocol that
// records none.
func harvestLAP(pr proto.Protocol, prog proto.Program) []lapRow {
	a, ok := pr.(lapReporter)
	if !ok {
		return nil
	}
	var groups []apps.LockGroup
	if g, ok := prog.(apps.LockGrouper); ok {
		groups = g.LockGroups()
	}
	if len(groups) == 0 {
		groups = []apps.LockGroup{{Name: "all locks", Lo: 0, Hi: a.NumLocks()}}
	}
	rows := make([]lapRow, 0, len(groups))
	for _, g := range groups {
		var row lapRow
		row.Group = g.Name
		var wFull, wQ, wAff, wVirt float64
		for l := g.Lo; l < g.Hi && l < a.NumLocks(); l++ {
			s := a.LockLAP(l)
			row.Events += s.Acquires
			row.Evaluated += s.Evaluated
			ev := float64(s.Evaluated)
			if ev == 0 {
				continue
			}
			wFull += float64(s.HitFull)
			wQ += float64(s.HitWaitQ)
			wAff += float64(s.HitWaitAff)
			wVirt += float64(s.HitWaitVirt)
		}
		if row.Evaluated > 0 {
			t := float64(row.Evaluated)
			row.Full = 100 * wFull / t
			row.WaitQ = 100 * wQ / t
			row.WaitAff = 100 * wAff / t
			row.WaitVirt = 100 * wVirt / t
		} else {
			row.Full, row.WaitQ, row.WaitAff, row.WaitVirt = -1, -1, -1, -1
		}
		rows = append(rows, row)
	}
	return rows
}

// LAP returns the Table 3 rows for an app (runs AEC with the given Ns if
// not cached yet).
func (e *Experiments) LAP(app string, ns int) []lapRow {
	return e.outcome(e.spec(app, ProtoAEC, ns)).lap
}

// LAPUnder returns the lock-group LAP rows measured under an arbitrary
// protocol (AEC or TM).
func (e *Experiments) LAPUnder(app string, kind ProtocolKind) []lapRow {
	return e.outcome(e.spec(app, kind, 2)).lap
}

// OverallLAPRate collapses an app's group rows into one events-weighted
// full-LAP success rate, or -1 when nothing was evaluated.
func OverallLAPRate(rows []lapRow) float64 {
	var hits, ev float64
	for _, r := range rows {
		if r.Evaluated > 0 && r.Full >= 0 {
			hits += r.Full * float64(r.Evaluated)
			ev += float64(r.Evaluated)
		}
	}
	if ev == 0 {
		return -1
	}
	return hits / ev
}

// LockApps are the applications whose synchronization overhead is
// dominated by lock operations (Figures 3, 4 and 6).
func LockApps() []string { return []string{"IS", "Raytrace", "Water-ns"} }

// BarrierApps are the barrier-dominated applications (Figure 5).
func BarrierApps() []string { return []string{"FFT", "Ocean", "Water-sp"} }

// AllApps returns the paper's six applications in its order.
func AllApps() []string {
	return []string{"IS", "Raytrace", "Water-ns", "FFT", "Ocean", "Water-sp"}
}

// appsFactory resolves an application factory, panicking on unknown names.
func appsFactory(app string) func(apps.Config) proto.Program {
	f, ok := apps.Registry[app]
	if !ok {
		panic("harness: unknown app " + app)
	}
	return f
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func fmtRate(r float64) string {
	if r < 0 {
		return "   -"
	}
	return fmt.Sprintf("%4.1f", r)
}
