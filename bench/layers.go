package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/harness"
	"aecdsm/internal/lint"
	"aecdsm/internal/lint/loader"
	"aecdsm/internal/trace"
)

// Layer measurements that only one workload can make. They are printed by
// that workload's traced run and are not in BENCHMARK.json, whose
// per-layer list holds what every workload reports.

// lightOverhead is the host cost of the "light" fault preset: the spans
// under prefix that ran faulted, over their clean twins (the same name
// without "/light"), minus one.
func lightOverhead(spans []span, prefix string, res *result) {
	seconds := secondsBy(spans, func(name string) string { return name })
	var light, clean float64
	for name, s := range seconds {
		if twin, ok := strings.CutSuffix(name, "/light"); ok && strings.HasPrefix(name, prefix) {
			light += s
			clean += seconds[twin]
		}
	}
	res.add("fault.light_overhead_frac", light/clean-1, "frac", fmt.Sprintf("faulted %.4g s over their clean twins' %.4g s", light, clean))
}

func (w *tables) layerMetrics(cfg *config, rec *recorder, res *result) {
	seconds := secondsBy(rec.spans, func(name string) string { return name })
	for _, app := range harness.AllApps() {
		res.add("apps."+app+".ideal_s", seconds["proto.ideal_run:"+app+"/ns2"], "s",
			"the application's own host time: its run under the zero-cost protocol")
	}
	if cfg.workload != "tables_q" || cfg.quick {
		return
	}
	// Layer-only: the parallel wall time spread 22 % at full scale, far too
	// much for an end-to-end bound.
	wall := func(jobs int) float64 {
		e := newExperiments(w.scale, w.seed)
		e.Jobs = jobs
		start := time.Now()
		e.All(io.Discard)
		return time.Since(start).Seconds()
	}
	// The one measurement that needs every core: the benchmark otherwise
	// runs on one (pinToOneThread).
	one := wall(1)
	pinned := runtime.GOMAXPROCS(runtime.NumCPU())
	all := wall(0)
	runtime.GOMAXPROCS(pinned)
	res.add("harness.sched_speedup", one/all, "x", fmt.Sprintf("jobs=1 at GOMAXPROCS %d %.4g s over jobs=%d at GOMAXPROCS %[3]d %.4g s", pinned, one, runtime.NumCPU(), all))
	lintModule(res)
}

// lintModule times dsmvet's work over the whole module — go-list loader
// plus every analyzer — with the loader's disk cache cold and then warm.
// The cache is pointed into bench/out so the benchmark writes nothing
// outside its checkout.
func lintModule(res *result) {
	root := "."
	if benchDir() == "." {
		root = ".."
	}
	cache, err := filepath.Abs(filepath.Join(benchDir(), "out", "cache"))
	if err == nil {
		err = os.RemoveAll(cache)
	}
	if err == nil && os.Getenv("GOCACHE") == "" {
		// Go's build cache lives under the same variable; keep it where it is.
		var gocache []byte
		if gocache, err = exec.Command("go", "env", "GOCACHE").Output(); err == nil {
			err = os.Setenv("GOCACHE", strings.TrimSpace(string(gocache)))
		}
	}
	if err == nil {
		err = os.Setenv("XDG_CACHE_HOME", cache)
	}
	pass := func() float64 {
		start := time.Now()
		pkgs, lerr := loader.Load(root, "./...")
		if lerr != nil {
			err = lerr
			return 0
		}
		for _, pkg := range pkgs {
			if _, lerr := lint.RunPackage(pkg, lint.Analyzers()); lerr != nil {
				err = lerr
			}
		}
		return time.Since(start).Seconds()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: lint.module_s skipped: %v\n", err)
		return
	}
	cold, warm := pass(), pass()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: lint.module_s skipped: %v\n", err)
		return
	}
	res.add("lint.module_s", cold, "s", "loader + all analyzers over ./..., loader cache cold")
	res.add("lint.module_warm_s", warm, "s", "the same with the loader cache warm")
}

func (w *bigmesh) layerMetrics(cfg *config, rec *recorder, res *result) {
	lightOverhead(rec.spans, "", res)
}

// nopTracer receives every event and drops it: the cost left is the
// simulator building the events.
type nopTracer struct{}

func (nopTracer) Trace(trace.Event) {}

func (w *fuzz) layerMetrics(cfg *config, rec *recorder, res *result) {
	lightOverhead(rec.spans, "check.unit:", res)

	// What the event stream and the auditor riding it cost: the first clean
	// units three times over — no tracer, a tracer that drops everything,
	// the auditor.
	units := w.units[:min(w.clean, 100)]
	pass := func(tracer func(procs int) trace.Tracer) float64 {
		start := time.Now()
		for _, u := range units {
			for _, kind := range check.DefaultProtocols() {
				harness.RunFaultTraced(u.w.Params(), harness.NewProtocol(kind, 2), apps.NewSynth(u.w.Cfg), tracer(u.w.Procs), nil)
			}
		}
		return time.Since(start).Seconds()
	}
	bare := pass(func(int) trace.Tracer { return nil })
	events := pass(func(int) trace.Tracer { return nopTracer{} })
	audited := pass(func(procs int) trace.Tracer { return check.NewAuditor(procs) })
	note := fmt.Sprintf("%d clean units: no tracer %.4g s, dropping tracer %.4g s, auditor %.4g s", len(units), bare, events, audited)
	res.add("trace.overhead_frac", events/bare-1, "frac", note)
	res.add("check.audit_frac", (audited-events)/audited, "frac", note)
}
