package tm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// The fault path's and the lock hand-off's allocation contracts: at steady
// state a fault runs on the faulting processor's scratch and the machine's
// one log, a notice is counted and dropped, and a hand-off's messages live
// in the acquirer's state. Each test and its benchmark share one body.

// refaultRig is a re-fault on notices from k writers: processor 0 holds
// a page each of k writers has closed one interval on, under a clock that
// covers all k, and the page is invalid with its seen clock zero — as if
// the notices had just arrived. The fault reads the k log rows between
// the two clocks, k requests go out by pointer, the servers fill the
// requester's buffer from their cached diffs, and the k diffs are ordered
// and applied. measure runs inside processor 0's body with one round,
// after a first round has made and cached the diffs and grown the
// scratch; then the rig checks what the rounds applied. measure may not
// stop its goroutine (no t.Fatal).
func refaultRig(tb testing.TB, k int, measure func(round func())) {
	pr := New()
	assemble(k+1, 1, pr, func(c *proto.Ctx) {
		// Every writer closes one interval on the page; page 0 is homed at
		// processor 0, so its first access there is no fault.
		if w := c.ID; w > 0 {
			c.WriteI32(mem.Addr(4*w), int32(w))
			pr.closeInterval(c, pr.ps[w])
			return
		}
		st := pr.ps[0]
		c.P.Advance(10_000_000, stats.Busy) // the writers are done
		covering := make([]int, k+1)
		for w := 1; w <= k; w++ {
			covering[w] = 1
		}
		st.vc = covering // a clock is replaced, never written
		var rounds uint64
		round := func() {
			rounds++
			st.pages[0].seen = nil // the notices are unapplied again
			c.M.Invalidate(0)
			c.ReadI32(0)
		}
		round()
		measure(round)
		if got := c.ReadI32(mem.Addr(4 * k)); got != int32(k) {
			tb.Errorf("word of writer %d reads %d", k, got)
		}
		if want := uint64(k) * rounds; c.P.Stats.DiffsApplied != want {
			tb.Errorf("%d diffs applied, want %d", c.P.Stats.DiffsApplied, want)
		}
	}).Run()
}

// barrierNoticesOp is a barrier release's notices for 64 pages the
// processor never touched.
func barrierNoticesOp(tb testing.TB) func() {
	const pages = 64
	pr := New()
	c := assemble(2, pages, pr, nil).Ctxs[1] // homed at processor 0: never valid at 1
	st := pr.ps[1]
	wns := make([]wnRef, pages)
	for pg := range wns {
		wns[pg] = wnRef{proc: 0, seq: 1, page: pg}
	}
	zero := make([]int, 2)
	return func() {
		st.vc = zero
		if fresh := pr.applyWNs(c, st, wns); fresh != pages {
			tb.Fatalf("%d fresh notices, want %d", fresh, pages)
		}
	}
}

var refaultWriters = []int{1, 4, 16}

// TestTMFaultDoesNotAllocate: a re-fault on notices from 1, 4 and 16
// writers, and a barrier's notices for pages never valid here, allocate
// nothing at steady state.
func TestTMFaultDoesNotAllocate(t *testing.T) {
	for _, k := range refaultWriters {
		refaultRig(t, k, func(round func()) {
			if n := testing.AllocsPerRun(100, round); n != 0 {
				t.Errorf("re-fault on notices from %d writers allocates %v objects/op, want 0", k, n)
			}
		})
	}
	if n := testing.AllocsPerRun(100, barrierNoticesOp(t)); n != 0 {
		t.Errorf("a barrier's notices for pages never valid here allocate %v objects/op, want 0", n)
	}
}

// BenchmarkTMFault times refaultRig's rounds and barrierNoticesOp.
func BenchmarkTMFault(b *testing.B) {
	for _, k := range refaultWriters {
		b.Run(fmt.Sprintf("refault/writers=%d", k), func(b *testing.B) {
			refaultRig(b, k, func(round func()) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.StopTimer()
			})
		})
	}
	b.Run("barrier-notices", func(b *testing.B) {
		op := barrierNoticesOp(b)
		b.ReportAllocs()
		for b.Loop() {
			op()
		}
	})
}

// TestLockHandoffAllocatesOnlyThePredictorsSet: at steady state a lock
// hand-off in which nobody wrote allocates one object, the update set the
// lock manager's passive predictor publishes for the grant (lap): the
// request, the manager's request to the last releaser and the grant live
// in the acquirer's state, the grant's notice list comes from the pool,
// and the clocks are shared. Four processors pass one lock around k and
// then 2k times each through one warmed arena; the difference is 4k
// hand-offs.
func TestLockHandoffAllocatesOnlyThePredictorsSet(t *testing.T) {
	const procs, k = 4, 16
	for _, mk := range []func() *TM{New, NewLazyHybrid} {
		a := &proto.Arena{Region: new(mem.Region)}
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				s := proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
					for range rounds {
						c.Acquire(0)
						c.Release(0)
					}
				}}
				a.Region.Acquire()
				defer a.Region.Release()
				if proto.Assemble(memsys.Default().ForProcs(procs), mk(), s, nil, nil, a).Run() {
					t.Fatal("deadlocked")
				}
			})
		}
		// Rounded: under the race detector a run's count wobbles by one.
		once, twice := allocs(k), allocs(2*k)
		if got := math.Round((twice - once) / (procs * k)); got != 1 {
			t.Errorf("%s: %v objects for %d hand-offs, %v for %d: %v per hand-off, want 1",
				mk().Name(), once, procs*k, twice, 2*procs*k, got)
		}
	}
}

// topoShape builds the fetched diffs of one fault as production delivers
// them — grouped by writer, ascending in seq — for writers × per
// intervals. With per > 1 the intervals are one lock's hand-off chain
// (round-robin over the writers, each covering all before it: one ready
// interval at a time, the Water-nsquared regime); with per == 1 they are
// mutually concurrent (Ocean's all-writer page at a barrier).
func topoShape(writers, per int) []ivalDiff {
	chains := make([][]ivalDiff, writers)
	clock := make([]int, writers)
	for s := 1; s <= per; s++ {
		for w := range writers {
			if per == 1 {
				clear(clock)
			}
			clock[w] = s
			chains[w] = append(chains[w], ivalDiff{&interval{proc: w, seq: s, vc: slices.Clone(clock)}, &mem.Diff{}})
		}
	}
	return slices.Concat(chains...)
}

// topoShapes are the writers × per shapes the tables produce: long
// hand-off chains from a few writers (n ≫ k), and one interval from every
// writer (n = k).
var topoShapes = [][2]int{{15, 40}, {4, 100}, {15, 10}, {63, 1}, {8, 1}, {2, 1}}

// topoOrderOp is the happens-before order alone of one shape, its scratch
// grown and reused as in the engine.
func topoOrderOp(writers, per int) func() {
	src := topoShape(writers, per)
	in := make([]ivalDiff, len(src))
	var sc topoScratch
	op := func() {
		copy(in, src)
		sc.order(in)
	}
	op() // scratch grown
	return op
}

// TestTopoOrderDoesNotAllocate: ordering a fault's diffs merges the
// per-writer chains on the protocol's retained scratch, whatever the shape.
func TestTopoOrderDoesNotAllocate(t *testing.T) {
	for _, sh := range topoShapes {
		if n := testing.AllocsPerRun(100, topoOrderOp(sh[0], sh[1])); n != 0 {
			t.Errorf("ordering %dx%d allocates %v objects/op, want 0", sh[0], sh[1], n)
		}
	}
}

// BenchmarkTopoOrder times topoOrderOp on each shape.
func BenchmarkTopoOrder(b *testing.B) {
	for _, sh := range topoShapes {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			op := topoOrderOp(sh[0], sh[1])
			b.ReportAllocs()
			for b.Loop() {
				op()
			}
		})
	}
}
