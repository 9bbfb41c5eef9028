package aecdsm_test

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"aecdsm"
	"aecdsm/internal/aec"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/network"
)

// benchScale controls the problem sizes the benchmark harness uses. The
// default 0.25 keeps `go test -bench=.` under a few minutes; set
// AEC_BENCH_SCALE=1.0 to regenerate the tables at the paper's sizes.
func benchScale() float64 {
	if s := os.Getenv("AEC_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.25
}

// benchJobs reads the AEC_JOBS override for the table benchmarks'
// parallel scheduler (0 = GOMAXPROCS; set AEC_JOBS=1 to benchmark the
// sequential baseline).
func benchJobs() int {
	if s := os.Getenv("AEC_JOBS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 0 {
			return v
		}
	}
	return 0
}

// benchExperiments builds the experiment driver every table benchmark
// iteration uses: benchmark scale, AEC_JOBS worker pool.
func benchExperiments() *harness.Experiments {
	e := aecdsm.NewExperiments(benchScale())
	e.Jobs = benchJobs()
	return e
}

// benchOut returns where table output goes: stdout with -v-style verbosity
// via AEC_BENCH_PRINT=1, discarded otherwise.
func benchOut() io.Writer {
	if os.Getenv("AEC_BENCH_PRINT") != "" {
		return os.Stdout
	}
	return io.Discard
}

// reportParallelCycles attaches the simulated parallel execution time of
// the run set as a benchmark metric.
func reportParallelCycles(b *testing.B, e *harness.Experiments, app string, kind harness.ProtocolKind) {
	b.Helper()
	res := e.Run(app, kind)
	b.ReportMetric(float64(res.Cycles()), "simcycles")
}

// BenchmarkTable2SyncEvents regenerates Table 2: synchronization events
// per application, measured under AEC.
func BenchmarkTable2SyncEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Table2(benchOut())
	}
}

// BenchmarkTable3LAPSuccess regenerates Table 3: LAP success rates per
// lock-variable group for Ns=2.
func BenchmarkTable3LAPSuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Table3(benchOut())
	}
}

// BenchmarkFigure3FaultOverhead regenerates Figure 3: memory access fault
// overhead under AEC without LAP vs AEC, lock-intensive applications.
func BenchmarkFigure3FaultOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Figure3(benchOut())
	}
}

// BenchmarkFigure4NoLAPvsLAP regenerates Figure 4: running time breakdown
// under AEC without LAP vs AEC.
func BenchmarkFigure4NoLAPvsLAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Figure4(benchOut())
	}
}

// BenchmarkTable4DiffStats regenerates Table 4: diff sizes, merge rates
// and the hidden fraction of diff-creation cost under AEC.
func BenchmarkTable4DiffStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Table4(benchOut())
	}
}

// BenchmarkFigure5TMvsAEC regenerates Figure 5: execution time breakdowns
// under TreadMarks vs AEC for the barrier-dominated applications.
func BenchmarkFigure5TMvsAEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Figure5(benchOut())
	}
}

// BenchmarkFigure6TMvsAEC regenerates Figure 6: execution time breakdowns
// under TreadMarks vs AEC for the lock-intensive applications.
func BenchmarkFigure6TMvsAEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.Figure6(benchOut())
	}
}

// BenchmarkNsSweep regenerates the §5.1 robustness study: LAP accuracy and
// runtime for update-set sizes 1-3.
func BenchmarkNsSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		e.NsSweep(benchOut())
	}
}

// BenchmarkApp runs every application under every protocol individually,
// reporting the simulated parallel execution time as a metric — the raw
// material behind every figure, useful for ablation comparisons.
func BenchmarkApp(b *testing.B) {
	kinds := []harness.ProtocolKind{
		harness.ProtoAEC, harness.ProtoAECNoLAP, harness.ProtoTM, harness.ProtoIdeal,
	}
	for _, app := range harness.AllApps() {
		for _, kind := range kinds {
			app, kind := app, kind
			b.Run(app+"/"+string(kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := benchExperiments()
					reportParallelCycles(b, e, app, kind)
				}
			})
		}
	}
}

// BenchmarkMeshTransfer measures the interconnect hot path. Transfer runs
// once per simulated message, so it must not allocate: ReportAllocs keeps
// the reusable route scratch buffer honest.
func BenchmarkMeshTransfer(b *testing.B) {
	m := network.NewMesh(aecdsm.DefaultParams())
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		m.Transfer(now, i%16, (i*7+3)%16, 256)
		now += 5
	}
}

// BenchmarkAblation quantifies AEC's two overlap design choices on a
// barrier-heavy and a lock-heavy application: eager barrier-time diff
// creation (vs fully lazy) and the acquire-time overlap window.
func BenchmarkAblation(b *testing.B) {
	apps := []string{"Ocean", "Water-ns"}
	variants := []struct {
		name string
		mk   func() *aec.AEC
	}{
		{"full", func() *aec.AEC { return aec.New(aec.DefaultOptions()) }},
		{"lazy-barrier-diffs", func() *aec.AEC {
			return aec.New(aec.Options{UseLAP: true, Ns: 2, LazyBarrierDiffs: true})
		}},
		{"no-acquire-overlap", func() *aec.AEC {
			return aec.New(aec.Options{UseLAP: true, Ns: 2, NoAcquireOverlap: true})
		}},
	}
	for _, app := range apps {
		for _, v := range variants {
			app, v := app, v
			b.Run(app+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					prog, err := aecdsm.NewApp(app, benchScale())
					if err != nil {
						b.Fatal(err)
					}
					res := harness.Run(aecdsm.DefaultParams(), v.mk(), prog).Must()
					b.ReportMetric(float64(res.Cycles()), "simcycles")
				}
			})
		}
	}
}

// ---- diff/merge kernel microbenchmarks -------------------------------------
//
// MakeDiff and MergeDiffs run once per page per interval in every protocol;
// docs/PERFORMANCE.md records the methodology. Three page shapes bracket
// the space: clean (no modified words — the skip path), sparse (a few
// scattered words — the common critical-section write set), and dense
// (every word modified — IS's whole-array snapshot).

const benchPageSize = 4096

// benchPagePair builds a (twin, cur) pair with the given modification
// pattern.
func benchPagePair(kind string) (twin, cur []byte) {
	twin = make([]byte, benchPageSize)
	cur = make([]byte, benchPageSize)
	for i := range twin {
		twin[i] = byte(i * 31)
		cur[i] = twin[i]
	}
	switch kind {
	case "clean":
	case "sparse":
		for i := 0; i < benchPageSize; i += 256 {
			cur[i] ^= 0xFF
		}
	case "dense":
		for i := 0; i < benchPageSize; i += 4 {
			cur[i] ^= 0xFF
		}
	default:
		panic("unknown page kind " + kind)
	}
	return twin, cur
}

// BenchmarkScaling regenerates the scaling sweep (docs/SCALING.md) at a
// small problem scale and machine sizes 16 and 64 — big enough to engage
// the combining tree and the sharded managers, small enough for CI. Set
// AEC_BENCH_SCALING_PROCS to sweep larger machines.
func BenchmarkScaling(b *testing.B) {
	procs := []int{16, 64}
	if s := os.Getenv("AEC_BENCH_SCALING_PROCS"); s != "" {
		procs = procs[:0]
		for _, f := range strings.Split(s, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil && v > 0 {
				procs = append(procs, v)
			}
		}
	}
	for i := 0; i < b.N; i++ {
		e := aecdsm.NewExperiments(0.1)
		e.Jobs = benchJobs()
		e.ScalingSweep(benchOut(), "Ocean", procs)
	}
}

// BenchmarkMakeDiff measures the twin-compare kernel on the three page
// shapes at the default 4-byte word granularity: through the package
// function, which grows a buffer per diff, and (procmem/) through
// ProcMem.MakeDiff, the entry point the protocols use, which encodes into
// the processor's scratch and allocates the diff at exact size.
func BenchmarkMakeDiff(b *testing.B) {
	for _, kind := range []string{"clean", "sparse", "dense"} {
		kind := kind
		twin, cur := benchPagePair(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(benchPageSize)
			for i := 0; i < b.N; i++ {
				mem.MakeDiff(0, twin, cur, 4)
			}
		})
		b.Run("procmem/"+kind, func(b *testing.B) {
			space := mem.NewSpace(benchPageSize)
			space.Alloc("page", benchPageSize, 0)
			pm := mem.NewProcMem(space, 0)
			pm.Write(0, cur)
			b.ReportAllocs()
			b.SetBytes(benchPageSize)
			for i := 0; i < b.N; i++ {
				pm.MakeDiff(0, twin, 4)
			}
		})
	}
}

// benchDiffPair builds two overlapping diffs of one page for the merge
// benchmarks.
func benchDiffPair(kind string) (*mem.Diff, *mem.Diff) {
	twin, cur := benchPagePair(kind)
	d1 := mem.MakeDiff(0, twin, cur, 4)
	shifted := append([]byte(nil), twin...)
	for i := 128; i < benchPageSize; i += 512 {
		shifted[i] ^= 0xAA
	}
	d2 := mem.MakeDiff(0, twin, shifted, 4)
	return d1, d2
}

// BenchmarkMergeDiffs measures the merge kernel: the allocating
// convenience wrapper (two page-sized scratch slices per call), the
// per-protocol Merger (scratch reused, output allocated), and the
// steady-state MergeInto path (0 allocs/op once warm).
func BenchmarkMergeDiffs(b *testing.B) {
	for _, kind := range []string{"sparse", "dense"} {
		kind := kind
		d1, d2 := benchDiffPair(kind)
		b.Run(kind+"/wrapper", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mem.MergeDiffs(benchPageSize, d1, d2)
			}
		})
		b.Run(kind+"/merger", func(b *testing.B) {
			m := mem.NewMerger(benchPageSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Merge(d1, d2)
			}
		})
		b.Run(kind+"/steady", func(b *testing.B) {
			m := mem.NewMerger(benchPageSize)
			var dst *mem.Diff
			dst, _ = m.MergeInto(dst, d1, d2) // warm dst capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = m.MergeInto(dst, d1, d2)
			}
		})
	}
}
