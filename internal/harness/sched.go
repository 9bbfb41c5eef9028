// Parallel experiment scheduler: executes distinct memoized run specs on a
// worker pool of isolated engines. Every simulation is a self-contained
// deterministic unit — its own sim.Engine, mem.Space, protocol instance
// and program instance, with all randomness derived from per-run
// apps.Config state — so runs compose across OS threads without sharing
// anything but the memo cache guarded here and the applications' generated
// inputs, which apps.Inputs builds once and no run writes.
//
// The concurrency in this file is strictly *between* engines: the worker
// pool runs whole isolated engines, and no engine-internal state is
// touched from more than one goroutine. Inside one engine the
// single-runner cooperative-scheduling contract still holds; internal/lint
// excuses this file's concurrency as cross-engine, and fails on any call
// it makes to an engine primitive (docs/LINTING.md).
package harness

import (
	"runtime"
	"sync"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// arenas is the free list of idle run arenas: the page memory and the
// engine of the simulations this process has finished, waiting for the
// next ones. A run takes one when it is composed and gives it back when
// it has been harvested, so a sweep's second and later runs allocate no
// page and build no engine; engines on several goroutines (-jobs N) each
// hold their own arena, and the list is as long as the most that ever ran
// at once.
var arenas struct {
	mu   sync.Mutex
	idle []*proto.Arena
}

// regionKeepBytes bounds what a region keeps between runs. A quarter-scale
// table sweep's largest run needs 14.0 MB and the 64-processor sweep at
// scale 0.1 7.4 MB (docs/PERFORMANCE.md, round eighteen); a paper-size
// run needs up to 246 MB, and letting every worker keep a paper-size
// run's region (40.8 MB, when it held no diffs) read the full-scale
// sweep's peak RSS at 1.5 × the parent's at the default -jobs for no user
// time (round ten). Beyond the bound a run's memory goes back to the
// collector when it ends, as all of it did before.
const regionKeepBytes = 16 << 20

// engineKeepBytes bounds the engine an arena keeps between runs
// (sim.Engine.Size): its processors and memory-system models, links, event
// queue array, pooled records and transport rows. A 16-processor engine
// keeps 31 KB after a clean run and 94 KB after a faulted one, a
// 64-processor one 121 KB and 1.4 MB, a 1024-processor one 1.6 MB after a
// barrier (TestIdleArenaBounded). What passes the bound is a high-water
// mark no later run is likely to need — 224 201 messages in flight when
// 1024 processors write one page, n² pair windows on a faulted
// 1024-processor machine — and such an engine goes back to the collector
// with its run; the next run builds one (docs/PERFORMANCE.md, round
// sixteen).
const engineKeepBytes = 8 << 20

// poisonReleased makes releaseArena poison what it takes back; only the
// lifetime tests set it (export_test.go).
var poisonReleased bool

// takeArena returns an idle arena, or a new one with a region and no
// engine yet, held for the caller's run.
func takeArena() *proto.Arena {
	arenas.mu.Lock()
	var a *proto.Arena
	if n := len(arenas.idle); n > 0 {
		a, arenas.idle = arenas.idle[n-1], arenas.idle[:n-1]
	}
	arenas.mu.Unlock()
	if a == nil {
		a = &proto.Arena{Region: new(mem.Region)}
	}
	a.Region.Acquire()
	return a
}

// releaseArena takes back the arena of a run that has been harvested:
// from here on nothing may read what the run drew from its region or left
// in its engine, and the engine, released, keeps none of the run alive. A
// run that panicked does not come here; its region and its engine go to
// the collector with it.
func releaseArena(a *proto.Arena) {
	a.Region.Release()
	a.Region.Trim(regionKeepBytes)
	if a.Engine != nil {
		a.Engine.Release()
		if a.Engine.Size() > engineKeepBytes {
			a.Engine = nil
		}
	}
	if poisonReleased {
		a.Region.Poison()
		if a.Engine != nil {
			a.Engine.Poison()
		}
	}
	arenas.mu.Lock()
	arenas.idle = append(arenas.idle, a)
	arenas.mu.Unlock()
}

// runOutcome is what one completed run contributes to the memo cache —
// only what a renderer reads: the statistics, the program's lock count,
// the LAP rows harvested from the protocol instance (nil when it records
// none) and, for a spec with metrics set, the per-lock summaries of its
// metrics sink. Nothing in it points into the run's region (page images,
// twins, tags), which by then serves another run, and the protocol and
// program instances (diffs, write notices) are garbage as soon as the run
// is harvested.
type runOutcome struct {
	run      *stats.Run
	numLocks int
	lap      []lapRow
	locks    []trace.LockSummary
}

// scheduler owns the Experiments memo cache. All access is serialized by
// its mutex so Experiments methods and prefetch workers may run
// concurrently.
type scheduler struct {
	mu    sync.Mutex
	cache map[runSpec]runOutcome
}

// outcome returns the memoized outcome of one run spec, running it first
// if need be. Concurrent duplicate runs of one spec are harmless: the
// simulations are deterministic, so both outcomes are identical and
// last-write-wins.
func (e *Experiments) outcome(spec runSpec) runOutcome {
	s := &e.sched
	s.mu.Lock()
	out, ok := s.cache[spec]
	s.mu.Unlock()
	if !ok {
		out = e.runOne(spec)
		s.mu.Lock()
		s.cache[spec] = out
		s.mu.Unlock()
	}
	return out
}

// missing filters specs down to the uncached ones, deduplicated, in input
// order.
func (s *scheduler) missing(specs []runSpec) []runSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[runSpec]bool, len(specs))
	var out []runSpec
	for _, k := range specs {
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := s.cache[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// jobs resolves the configured worker count: Jobs when positive, else
// GOMAXPROCS. A non-nil Tracer forces 1 so the combined event stream
// keeps the sequential order (trace sinks are not required to be
// goroutine-safe, and interleaving would reorder events between runs).
func (e *Experiments) jobs() int {
	if e.Tracer != nil {
		return 1
	}
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// prefetch brings every given run spec into the memo cache, executing the
// uncached ones on up to e.jobs() concurrent engines. Tables and sweeps
// call it with their full spec set before formatting anything; because
// formatting then reads only the cache, the output is byte-identical
// whether the runs happened here in parallel or lazily in sequential
// order.
func (e *Experiments) prefetch(specs []runSpec) {
	missing := e.sched.missing(specs)
	RunParallel(len(missing), e.jobs(), func(i int) { e.outcome(missing[i]) })
}

// RunParallel executes fn(0..n-1) on up to jobs workers (zero or less
// means GOMAXPROCS) and waits for all of them: the one worker pool, behind
// prefetch and the differential fuzzer.
func RunParallel(n, jobs int, fn func(i int)) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
