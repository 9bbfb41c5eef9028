package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	update   bool
	started  time.Time // process start, for the cold set-up time
}

// result is what one workload run reports: the contract's four keys.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

func (r *result) add(name string, value float64, unit, note string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit, note})
}

// fail books n failed simulations and logs the first reason of each kind.
func (r *result) fail(out io.Writer, n int, format string, args ...any) {
	r.Failed += n
	fmt.Fprintf(out, "FAIL: "+format+"\n", args...)
}

// A run sets up at least setupRepeats times and for at least setupSeconds:
// the reported set-up time is the median, because one millisecond-scale
// sample is mostly noise.
const (
	setupRepeats = 25
	setupSeconds = 0.5
)

// memFloorKB is the MemAvailable below which tables_full is refused: it
// peaks near 6 GB, and being OOM-killed reports nothing at all.
const memFloorKB = 8 << 20

// runWorkload runs one workload in this process and prints each metric as
// "workload name value unit" on out.
func runWorkload(cfg *config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if cfg.workload == "tables_full" && !cfg.quick {
		if kb, err := memAvailableKB(); err == nil && kb < memFloorKB {
			res.Attempted = 1
			res.fail(out, 1, "tables_full needs 8 GB available, /proc/meminfo has %d MB: refusing to start rather than be OOM-killed", kb>>10)
			return res, nil
		}
	}

	// Set-up: reference loading and input generation, several times over.
	var ref *reference
	var setups []float64
	var cold, total float64
	for len(setups) < setupRepeats || total < setupSeconds {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		if ref, err = loadReference(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
		if len(setups) == 1 {
			cold = time.Since(cfg.started).Seconds()
		}
	}

	if cfg.trace {
		err = tracedPass(cfg, w, ref, res, out)
	} else {
		err = untracedPass(cfg, w, ref, res, out)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups; cold %.6f s from process start", len(setups), cold))
		res.add("failed_frac", float64(res.Failed)/float64(res.Attempted), "frac", fmt.Sprintf("%d of %d simulations", res.Failed, res.Attempted))
	}
	res.Correct = res.Failed == 0
	for _, m := range res.Metrics {
		// Twelve digits print the exact counts exactly.
		line := fmt.Sprintf("%-12s %-26s %16.12g %s", cfg.workload, m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  # " + m.Note
		}
		fmt.Fprintln(out, line)
	}
	return res, nil
}

// sample is the host cost of one timed call.
type sample struct {
	wall, user, sys float64
	alloc, mallocs  uint64
	gcCycles        uint32
	gcCPU           float64
}

// measure times fn with the heap collected first, so every iteration
// starts from the same state and none pays for its predecessor's garbage.
func measure(fn func()) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var r0, r1 syscall.Rusage
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r0) // cannot fail with these arguments
	gc0 := gcCPUSeconds()
	start := time.Now()
	fn()
	wall := time.Since(start).Seconds()
	gcCPU := gcCPUSeconds() - gc0
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
	runtime.ReadMemStats(&m1)
	return sample{
		gcCycles: m1.NumGC - m0.NumGC,
		gcCPU:    gcCPU,
		wall:     wall,
		user:     tvSeconds(r1.Utime) - tvSeconds(r0.Utime),
		sys:      tvSeconds(r1.Stime) - tvSeconds(r0.Stime),
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// safely runs fn, turning a panic (a Must* helper refusing a failed
// simulation) into an error.
func safely(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	fn()
	return nil
}

// verifier holds what every iteration of a run must reproduce.
type verifier struct {
	ref   *reference // committed reference, default seed only
	first *iteration // the run's first clean iteration
}

// check books an iteration's own failures and compares it with the
// committed reference and the iterations before it. Any disagreement fails
// every simulation of the iteration.
func (v *verifier) check(it iteration, res *result, out io.Writer) {
	res.Attempted += it.runs
	switch {
	case it.failed > 0:
		res.fail(out, it.failed, "%s", it.why)
	case v.ref != nil && it.digest != v.ref.SHA256:
		res.fail(out, it.runs, "output digest %s differs from bench/expected (%s)", it.digest, v.ref.SHA256)
	case v.ref != nil && it.runs != v.ref.Runs:
		res.fail(out, it.runs, "%d simulations, bench/expected has %d", it.runs, v.ref.Runs)
	case v.first != nil && it.digest != v.first.digest:
		res.fail(out, it.runs, "output digest %s differs from the first iteration's (%s)", it.digest, v.first.digest)
	case v.first == nil:
		v.first = &it
	}
}

// checkReplica makes the replica pass and holds it against the committed
// counts and the run's iterations: they all produced the first one's
// output, so comparing with that one covers them.
func (v *verifier) checkReplica(w workload, rec *recorder, res *result, out io.Writer) *replicaOut {
	var rep replicaOut
	var err error
	if perr := safely(func() { rep, err = w.replica(rec) }); perr != nil {
		err = perr
	}
	runs := max(rep.Runs, 1)
	res.Attempted += runs
	switch ref, it := v.ref, v.first; {
	case err != nil:
		res.fail(out, runs, "replica: %v", err)
	case ref != nil && (rep.Msgs != ref.SimMsgs || rep.Cycles != ref.SimCycles || rep.Runs != ref.Runs):
		res.fail(out, runs, "replica counts runs=%d msgs=%d cycles=%d differ from bench/expected (%d, %d, %d)",
			rep.Runs, rep.Msgs, rep.Cycles, ref.Runs, ref.SimMsgs, ref.SimCycles)
	case it != nil && rep.digest != "" && rep.digest != it.digest:
		res.fail(out, runs, "replica's output digest %s differs from the pass's (%s)", rep.digest, it.digest)
	case it != nil && rep.cross != nil && !slices.Equal(rep.cross, it.cross):
		res.fail(out, runs, "replica does not reproduce the pass: %v vs %v", rep.cross, it.cross)
	}
	return &rep
}

// timedIteration measures one untraced iteration; a panic inside it is an
// iteration that failed.
func timedIteration(w workload) (iteration, sample) {
	var it iteration
	var perr error
	s := measure(func() { perr = safely(func() { it = w.iterate() }) })
	if perr != nil {
		it = iteration{runs: 1, failed: 1, why: perr.Error()}
	}
	return it, s
}

// untracedPass measures the end-to-end metrics: no span is recorded and no
// probe runs. The first iteration starts from a cold heap, as a one-shot
// CLI run does; a workload with three or more iterations reports the warm
// median. Without a committed reference (another seed, -quick) one untimed
// replica pass afterwards supplies the exact message count and verifies
// the iterations.
func untracedPass(cfg *config, w workload, ref *reference, res *result, out io.Writer) error {
	v := &verifier{ref: ref}
	var samples []sample
	var units []float64
	begin := time.Now()
	for {
		it, s := timedIteration(w)
		v.check(it, res, out)
		samples = append(samples, s)
		units = append(units, it.units...)
		// Another iteration only if at least half of it fits the budget.
		elapsed := time.Since(begin).Seconds()
		if elapsed+0.5*elapsed/float64(len(samples)) >= cfg.seconds {
			break
		}
	}

	var msgs, cycles uint64
	if ref != nil {
		msgs, cycles = ref.SimMsgs, ref.SimCycles
	} else {
		rep := v.checkReplica(w, nil, res, out)
		msgs, cycles = rep.Msgs, rep.Cycles
		if cfg.update {
			if res.Failed > 0 {
				return fmt.Errorf("not updating bench/expected from a failing run")
			}
			return writeReference(reference{cfg.workload, cfg.seed, v.first.digest, rep.Runs, msgs, cycles})
		}
	}

	col := func(f func(sample) float64) []float64 {
		c := make([]float64, len(samples))
		for i, s := range samples {
			c[i] = f(s)
		}
		return c
	}
	walls := col(func(s sample) float64 { return s.wall })
	n := fmt.Sprintf("median of %d iterations", len(samples))
	res.add("wall_s", median(walls), "s", fmt.Sprintf("%s, min %.4g max %.4g", n, slices.Min(walls), slices.Max(walls)))
	res.add("user_s", median(col(func(s sample) float64 { return s.user })), "s", n)
	res.add("peak_rss_mb", peakRSSMB(), "MB", "process max RSS")
	res.add("alloc_gb", median(col(func(s sample) float64 { return float64(s.alloc) }))/1e9, "GB", n)
	res.add("sim_kmsgs_per_s", float64(msgs)/median(walls)/1e3, "kmsg/s", fmt.Sprintf("%d simulated messages per iteration", msgs))
	if len(units) >= 1000 {
		res.add("unit_p99_ms", quantile(units, 0.99), "ms", fmt.Sprintf("p50 %.4g ms over %d units", quantile(units, 0.5), len(units)))
	} else if len(units) > 0 {
		fmt.Fprintf(out, "%s: %d units, p50 %.4g ms; unit_p99_ms needs 1000\n", cfg.workload, len(units), quantile(units, 0.5))
	}
	res.add("sim.msgs", float64(msgs), "count", "exact")
	res.add("sim.gcycles", float64(cycles)/1e9, "Gcycle", "exact")
	if v.first != nil {
		fmt.Fprintf(out, "%s: digest %s\n", cfg.workload, v.first.digest)
	}
	return nil
}

// spanPairNS calibrates the recorder: the host cost of one begin/end pair.
func spanPairNS() float64 {
	const pairs = 20000
	rec := newRecorder("calibration")
	start := time.Now()
	for i := 0; i < pairs; i++ {
		rec.end(rec.begin("calibration.span"))
	}
	return float64(time.Since(start).Nanoseconds()) / pairs
}

// tracedPass measures the per-layer metrics: one untraced iteration for
// reference, the replica with a span around every simulation, then the
// isolated probes and the workload's own layer measurements.
func tracedPass(cfg *config, w workload, ref *reference, res *result, out io.Writer) error {
	v := &verifier{ref: ref}
	it, plain := timedIteration(w)
	v.check(it, res, out)

	rec := newRecorder(cfg.workload)
	var rep *replicaOut
	traced := measure(func() {
		id := rec.begin("bench.iteration")
		rep = v.checkReplica(w, rec, res, out)
		rec.end(id)
	})

	res.add("sim.msgs", float64(rep.Msgs), "count", "exact")
	res.add("sim.gcycles", float64(rep.Cycles)/1e9, "Gcycle", "exact")
	rounds := 5
	if cfg.quick {
		rounds = 1
	}
	res.Metrics = append(res.Metrics, runProbes(rounds)...)

	layers := secondsBy(rec.spans, layerOf)
	for _, l := range []struct{ layer, metric string }{
		{"proto.ideal_run", "proto.ideal_run_s"}, {"aec.run", "aec.run_s"}, {"aec_nolap.run", "aec_nolap.run_s"},
		{"tm.run", "tm.run_s"}, {"munin.run", "munin.run_s"}, {"harness.format", "harness.format_s"},
	} {
		if s, ok := layers[l.layer]; ok {
			res.add(l.metric, s, "s", "host time summed over this layer's spans")
		}
	}
	for _, l := range []string{"aec", "tm", "munin"} {
		res.add(l+".ns_per_msg", layers[l+".run"]*1e9/float64(rep.layerMsgs[l+".run"]), "ns", "host time per simulated message")
	}
	w.layerMetrics(cfg, rec, res)

	res.add("host.sys_s", plain.sys, "s", "untraced iteration, cold heap")
	res.add("host.gc_cpu_frac", plain.gcCPU/(plain.user+plain.sys), "frac", "GC CPU over process CPU, untraced iteration")
	res.add("host.gc_cycles", float64(plain.gcCycles), "count", "untraced iteration")
	res.add("host.mallocs_m", float64(plain.mallocs)/1e6, "M", "untraced iteration")
	// Not the difference of the two walls: two passes over the same
	// simulations differ by several percent from heap warmth and machine
	// noise, orders of magnitude more than the recorder costs.
	pair := spanPairNS()
	res.add("bench.trace_overhead_frac", pair*float64(len(rec.spans))/1e9/traced.wall, "frac",
		fmt.Sprintf("%d spans at %.0f ns each over the %.4g s traced pass (untraced, cold: %.4g s)", len(rec.spans), pair, traced.wall, plain.wall))

	path, err := writeSpans(benchDir(), cfg.workload, rec.spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d spans in %s\n", cfg.workload, len(rec.spans), path)
	return nil
}

// gcCPUSeconds is the CPU time the Go runtime has spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is this process's maximum resident set; Linux reports KB.
func peakRSSMB() float64 {
	var r syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r) // cannot fail with these arguments
	return float64(r.Maxrss) / 1024
}

func memAvailableKB() (int64, error) {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "MemAvailable:"); ok {
			var kb int64
			_, err := fmt.Sscan(rest, &kb)
			return kb, err
		}
	}
	return 0, fmt.Errorf("/proc/meminfo has no MemAvailable")
}
