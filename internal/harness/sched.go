// Parallel experiment scheduler: executes distinct memoized run keys on a
// worker pool of isolated engines. Every simulation is a self-contained
// deterministic unit — its own sim.Engine, mem.Space, protocol instance
// and program instance, with all randomness derived from per-run
// apps.Config state — so runs compose across OS threads without sharing
// anything but the memo cache guarded here.
//
// The concurrency in this file is strictly *between* engines; inside one
// engine the single-runner cooperative-scheduling contract still holds
// and is enforced by dsmvet (docs/LINTING.md).
//
//dsmvet:crossengine worker pool over isolated engines; no engine-internal state is touched from more than one goroutine
package harness

import (
	"runtime"
	"sync"
)

// runOutcome is everything one completed run contributes to the memo
// cache: the measurements plus the LAP statistics harvested from its
// protocol instance (nil when the protocol records none).
type runOutcome struct {
	res *Result
	lap []lapRow
}

// scheduler owns the Experiments memo cache. All access is serialized by
// its mutex so Experiments methods and prefetch workers may run
// concurrently.
type scheduler struct {
	mu    sync.Mutex
	cache map[runKey]runOutcome
}

func (s *scheduler) init() { s.cache = map[runKey]runOutcome{} }

// lookup returns the memoized outcome for key, if any.
func (s *scheduler) lookup(key runKey) (runOutcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, ok := s.cache[key]
	return out, ok
}

// store memoizes a completed run. Concurrent duplicate runs of one key
// are harmless: the simulations are deterministic, so both outcomes are
// identical and last-write-wins.
func (s *scheduler) store(key runKey, out runOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache[key] = out
}

// missing filters keys down to the uncached ones, deduplicated, in input
// order.
func (s *scheduler) missing(keys []runKey) []runKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[runKey]bool, len(keys))
	var out []runKey
	for _, k := range keys {
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

// prefetch brings every given run key into the memo cache, executing the
// uncached ones on up to e.jobs() concurrent engines. Tables call it with
// their full key set before formatting anything; because formatting then
// reads only the cache, table output is byte-identical whether the runs
// happened here in parallel or lazily in sequential order.
func (e *Experiments) prefetch(keys []runKey) {
	missing := e.sched.missing(keys)
	runParallel(len(missing), e.jobs(), func(i int) {
		e.sched.store(missing[i], e.runOne(missing[i]))
	})
}

// runParallel executes fn(0..n-1) on up to jobs workers and waits for all
// of them: the one worker pool, behind prefetch and behind the drivers
// whose runs are not memoizable (Speedup varies the machine shape, so its
// results bypass the key cache and land in caller-indexed slots instead).
func runParallel(n, jobs int, fn func(i int)) {
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
