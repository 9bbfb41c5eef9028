package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aecdsm"
	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// defaultSeed is the seed bench/expected/ was generated at.
const defaultSeed = 1

// workloadNames lists the workloads in the order a full set runs them.
// BENCHMARK.json leaves tables_full to manual runs: one iteration is 45 s
// and 6 GB, which the driver's cap on total run time has no room for.
var workloadNames = []string{"tables_q", "tables_full", "bigmesh", "fuzz_small"}

// counts are the exact simulated statistics of one iteration. They depend
// only on (workload, seed), never on host timing, so two commits compare
// them exactly and any change is a behaviour change, not a speed-up.
type counts struct {
	Runs      int
	Msgs      uint64
	Cycles    uint64
	layerMsgs map[string]uint64
}

func (c *counts) add(layer string, res *harness.Result) {
	msgs := res.Run.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
	c.Runs++
	c.Msgs += msgs
	c.Cycles += res.Cycles()
	if c.layerMsgs == nil {
		c.layerMsgs = map[string]uint64{}
	}
	c.layerMsgs[layer] += msgs
}

// iteration is the outcome of one untraced pass through the entry point
// users call.
type iteration struct {
	digest string   // sha256 of the pass's output
	runs   int      // simulations attempted
	failed int      // simulations that failed
	why    string   // first failure, for the log
	cross  []uint64 // values the replica must reproduce (cycles, checksums)
	units  []float64
}

// replicaOut is the outcome of re-running an iteration's simulations one
// at a time through the per-run API: the exact counts the entry points do
// not expose, and the values that prove both passes simulated the same
// thing. digest is empty when the replica renders no output of its own.
type replicaOut struct {
	counts
	cross  []uint64
	digest string
}

// workload is one set of inputs. setup is cheap and repeatable; iterate
// and replica may panic (the harness's Must* helpers do on a failed
// simulation) — the runner recovers and counts the pass as failed.
// layerMetrics adds what only this workload's traced pass can measure
// (layers.go).
type workload interface {
	setup() error
	iterate() iteration
	replica(rec *recorder) (replicaOut, error)
	layerMetrics(cfg *config, rec *recorder, res *result)
}

// protoLayer names the layer whose host time a run under kind is booked
// to; variants of one protocol share its package and its layer.
func protoLayer(kind harness.ProtocolKind) string {
	switch kind {
	case harness.ProtoIdeal:
		return "proto.ideal_run"
	case harness.ProtoAEC:
		return "aec.run"
	case harness.ProtoAECNoLAP:
		return "aec_nolap.run"
	case harness.ProtoTM, harness.ProtoTMLH:
		return "tm.run"
	case harness.ProtoMunin, harness.ProtoMuninLAP:
		return "munin.run"
	}
	panic("bench: no layer for protocol " + string(kind))
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "tables_q", "tables_full":
		scale := 0.25
		if cfg.workload == "tables_full" {
			scale = 1.0
		}
		if cfg.quick {
			scale = 0.05
		}
		return &tables{scale: scale, seed: cfg.seed}, nil
	case "bigmesh":
		w := &bigmesh{scale: 0.1, procs: []int{64}, seed: cfg.seed}
		if cfg.quick {
			w.procs = []int{16}
		}
		return w, nil
	case "fuzz_small":
		w := &fuzz{faultSeed: cfg.seed, clean: 160, faulted: 80}
		if cfg.quick {
			w.clean, w.faulted = 20, 10
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// generateInput is the set-up stage every simulation of app starts with:
// the program is built from the seed, its problem size checked against the
// machine, and its shared memory image and serial reference solution
// computed. Timing it here is what makes work moved into that stage show.
func generateInput(app string, scale float64, seed uint64, procs int) error {
	prog, err := aecdsm.NewAppSeeded(app, scale, seed)
	if err != nil {
		return err
	}
	if sc, ok := prog.(proto.SplitChecker); ok {
		if err := sc.CheckSplit(procs); err != nil {
			return fmt.Errorf("%s on %d processors: %w", app, procs, err)
		}
	}
	prog.Init(mem.NewSpace(memsys.Default().PageSize), procs)
	return nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ---- tables_q / tables_full -------------------------------------------------

// tables is NewExperiments(scale).All: every table and figure of the paper
// from a fresh memo cache, strictly sequential.
type tables struct {
	scale float64
	seed  uint64
	keys  []tableKey
}

type tableKey struct {
	app  string
	kind harness.ProtocolKind
	ns   int
}

// setup generates the six applications' inputs from the seed, then builds
// the memo key set All submits to its scheduler: the six applications
// under the seven protocol kinds, plus the Ns=1..3 sweep of the lock
// applications under AEC.
func (w *tables) setup() error {
	for _, app := range harness.AllApps() {
		if err := generateInput(app, w.scale, w.seed, memsys.Default().NumProcs); err != nil {
			return err
		}
	}
	w.keys = w.keys[:0]
	for _, app := range harness.AllApps() {
		for _, p := range aecdsm.Protocols() {
			w.keys = append(w.keys, tableKey{app, harness.ProtocolKind(p), 2})
		}
	}
	for _, app := range harness.LockApps() {
		for _, ns := range []int{1, 3} {
			w.keys = append(w.keys, tableKey{app, harness.ProtoAEC, ns})
		}
	}
	return nil
}

// newExperiments is the fresh, strictly sequential driver every iteration
// starts from.
func newExperiments(scale float64, seed uint64) *aecdsm.Experiments {
	e := aecdsm.NewExperiments(scale)
	e.Jobs = 1
	e.BaseSeed = seed
	return e
}

func (w *tables) iterate() iteration {
	var buf bytes.Buffer
	newExperiments(w.scale, w.seed).All(&buf)
	return iteration{digest: digestOf(buf.Bytes()), runs: len(w.keys)}
}

// replica walks the key set itself through Experiments.RunNs, one span per
// simulation, then renders All from the warm cache: the render must be
// byte-identical to the untraced pass and its host time is the harness
// layer's formatting cost.
func (w *tables) replica(rec *recorder) (replicaOut, error) {
	var out replicaOut
	e := newExperiments(w.scale, w.seed)
	for _, k := range w.keys {
		layer := protoLayer(k.kind)
		id := rec.begin(fmt.Sprintf("%s:%s/ns%d", layer, k.app, k.ns))
		res := e.RunNs(k.app, k.kind, k.ns)
		rec.end(id)
		out.add(layer, res)
	}
	var buf bytes.Buffer
	id := rec.begin("harness.format")
	e.All(&buf)
	rec.end(id)
	out.digest = digestOf(buf.Bytes())
	return out, nil
}

// ---- bigmesh ----------------------------------------------------------------

// bigmesh is ScalingSweep over large meshes: radix-16 combining barriers,
// sharded managers and homes, bitset copysets, and every cell also under
// the "light" fault preset.
type bigmesh struct {
	scale float64
	procs []int
	seed  uint64
	light fault.Config
}

func (w *bigmesh) setup() error {
	for _, n := range w.procs {
		if err := generateInput("Ocean", w.scale, w.seed, n); err != nil {
			return err
		}
	}
	fc, err := fault.ParseSpec("light")
	w.light = fc
	return err
}

func (w *bigmesh) iterate() iteration {
	var buf bytes.Buffer
	newExperiments(w.scale, w.seed).ScalingSweep(&buf, "Ocean", w.procs)
	it := iteration{digest: digestOf(buf.Bytes()), runs: 2 * len(w.procs) * len(harness.ScalingKinds())}
	// The sweep's cycle column: rows are "procs protocol cycles ...".
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		if cycles, err := strconv.ParseUint(f[2], 10, 64); err == nil {
			it.cross = append(it.cross, cycles)
		}
	}
	return it
}

// replica composes each cell of the sweep through harness.RunFaultTraced
// with the sweep's machine configuration; its clean cycle counts must
// reproduce the sweep's cycle column.
func (w *bigmesh) replica(rec *recorder) (replicaOut, error) {
	var out replicaOut
	for _, n := range w.procs {
		params := memsys.Default().ForProcs(n)
		params.BarrierRadix, params.ShardHomes, params.ShardManagers = 16, true, true
		for _, kind := range harness.ScalingKinds() {
			for _, fc := range []*fault.Config{nil, &w.light} {
				prog, err := aecdsm.NewAppSeeded("Ocean", w.scale, w.seed)
				if err != nil {
					return out, err
				}
				layer, name := protoLayer(kind), fmt.Sprintf("Ocean/%d", n)
				if fc != nil {
					name += "/light"
				}
				id := rec.begin(layer + ":" + name)
				res := harness.RunFaultTraced(params, harness.NewProtocol(kind, 2), prog, nil, fc)
				rec.end(id)
				if err := runErr(res); err != nil {
					return out, fmt.Errorf("%s under %s: %w", name, kind, err)
				}
				out.add(layer, res)
				if fc == nil {
					out.cross = append(out.cross, res.Cycles())
				}
			}
		}
	}
	return out, nil
}

func runErr(res *harness.Result) error {
	switch {
	case res.SplitErr != nil:
		return res.SplitErr
	case res.Deadlocked:
		return errors.New("deadlocked")
	}
	return res.VerifyErr
}

// ---- fuzz_small -------------------------------------------------------------

// fuzz is the differential checker over fuzz seeds 1..clean: every seed
// clean, then the first seeds again under the "light" fault preset, each
// under AEC, TM, Munin and ideal with the invariant auditor attached. One
// unit is one fuzz seed under one schedule.
//
// The benchmark's seed is cmd/fuzzdsm's -fault-seed: it picks the fault
// schedules, not the programs. Moving the window of programs instead
// changes the work itself — disjoint windows of 200 seeds differed by 8 % in
// simulated messages and 6 % in bytes allocated — which no bound on
// alloc_gb tight enough to be useful would survive.
type fuzz struct {
	faultSeed      uint64
	clean, faulted int
	units          []fuzzUnit
}

type fuzzUnit struct {
	w  check.Workload
	fc *fault.Config
}

func (u fuzzUnit) name() string {
	if u.fc != nil {
		return fmt.Sprintf("%d/light", u.w.Seed)
	}
	return strconv.FormatUint(u.w.Seed, 10)
}

// setup derives every unit's program and generates its input.
func (w *fuzz) setup() error {
	light, err := fault.ParseSpec("light")
	if err != nil {
		return err
	}
	w.units = w.units[:0]
	for seed := uint64(1); seed <= uint64(w.clean); seed++ {
		u := fuzzUnit{w: check.Generate(seed, 0)}
		apps.NewSynth(u.w.Cfg).Init(mem.NewSpace(u.w.PageSize), u.w.Procs)
		w.units = append(w.units, u)
	}
	for _, u := range w.units[:w.faulted] {
		fc := light
		fc.Seed = w.faultSeed + u.w.Seed
		w.units = append(w.units, fuzzUnit{w: u.w, fc: &fc})
	}
	return nil
}

func (w *fuzz) iterate() iteration {
	kinds := check.DefaultProtocols()
	var it iteration
	h := sha256.New()
	for _, u := range w.units {
		start := time.Now()
		rep := check.RunWorkloadFault(u.w, kinds, u.fc)
		it.units = append(it.units, float64(time.Since(start).Nanoseconds())/1e6)
		runs := len(rep.Runs)
		if rep.Baseline != nil {
			runs++
		}
		it.runs += runs
		if rep.Failed() {
			it.failed += runs
			if it.why == "" {
				it.why = strings.TrimSpace(rep.String())
			}
		}
		fmt.Fprintf(h, "%s", u.name())
		for _, r := range rep.Runs {
			fmt.Fprintf(h, " %s=%016x/%d", r.Kind, r.Final, len(r.Phases))
			it.cross = append(it.cross, r.Final)
		}
		fmt.Fprintln(h)
	}
	it.digest = hex.EncodeToString(h.Sum(nil))
	return it
}

// replica composes every run of every unit the way check.RunWorkloadFault
// does (auditor attached, fault-free baseline after a faulted unit); the
// final checksums must reproduce the checker's.
func (w *fuzz) replica(rec *recorder) (replicaOut, error) {
	var out replicaOut
	for _, u := range w.units {
		uid := rec.begin("check.unit:" + u.name())
		for _, kind := range check.DefaultProtocols() {
			final, err := w.run(rec, &out, u, kind, check.NewAuditor(u.w.Procs))
			if err != nil {
				return out, err
			}
			out.cross = append(out.cross, final)
		}
		if u.fc != nil {
			clean := u
			clean.fc = nil
			if _, err := w.run(rec, &out, clean, check.DefaultProtocols()[0], nil); err != nil {
				return out, err
			}
		}
		rec.end(uid)
	}
	return out, nil
}

// run executes one simulation of a unit and returns its final checksum.
func (w *fuzz) run(rec *recorder, out *replicaOut, u fuzzUnit, kind harness.ProtocolKind, aud *check.Auditor) (uint64, error) {
	var tr trace.Tracer
	if aud != nil {
		tr = aud
	}
	prog := apps.NewSynth(u.w.Cfg)
	layer := protoLayer(kind)
	id := rec.begin(layer + ":synth/" + u.name())
	res := harness.RunFaultTraced(u.w.Params(), harness.NewProtocol(kind, 2), prog, tr, u.fc)
	rec.end(id)
	if err := runErr(res); err != nil {
		return 0, fmt.Errorf("seed %s under %s: %w", u.name(), kind, err)
	}
	if aud != nil && len(aud.Violations()) > 0 {
		return 0, fmt.Errorf("seed %s under %s: %s", u.name(), kind, aud.Violations()[0])
	}
	out.add(layer, res)
	return prog.FinalChecksum(), nil
}

// ---- committed references ---------------------------------------------------

// reference is bench/expected/<workload>.json: what one iteration at the
// default seed must produce at this commit.
type reference struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	SHA256    string `json:"sha256"`
	Runs      int    `json:"runs"`
	SimMsgs   uint64 `json:"sim_msgs"`
	SimCycles uint64 `json:"sim_cycles"`
}

// benchDir finds the benchmark's directory from the two places it is run
// from: the repository root (go run ./bench) and the package (go test).
func benchDir() string {
	if _, err := os.Stat("go.mod"); err == nil {
		return "bench"
	}
	return "."
}

func referencePath(workload string) string {
	return filepath.Join(benchDir(), "expected", workload+".json")
}

// loadReference returns the committed reference, or nil when the run has
// none to compare with: another seed, or the -quick sizes.
func loadReference(cfg *config) (*reference, error) {
	if cfg.seed != defaultSeed || cfg.quick || cfg.update {
		return nil, nil
	}
	b, err := os.ReadFile(referencePath(cfg.workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath(cfg.workload), err)
	}
	return &ref, nil
}

func writeReference(ref reference) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(referencePath(ref.Workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(referencePath(ref.Workload), append(b, '\n'), 0o644)
}
