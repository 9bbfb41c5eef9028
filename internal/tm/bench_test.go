package tm

import (
	"fmt"
	"slices"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// The fault path's zero-allocation contracts: at steady state a fault runs
// on the faulting processor's scratch and the machine's one log, and a
// notice for a page never valid here is counted and dropped. Each test and
// its benchmark share one body.

// refaultRig is a re-fault on notices from k writers: processor 0 receives
// one notice from each of k writers for a page it holds, and faults on it.
// The pending list is sorted and consumed, k requests go out by pointer,
// the servers fill the requester's buffer from their cached diffs, and the
// k diffs are ordered and applied. measure runs inside processor 0's body
// with one round, after a first round has made and cached the diffs and
// grown the scratch; then the rig checks what the rounds applied. measure
// may not stop its goroutine (no t.Fatal).
func refaultRig(tb testing.TB, k int, measure func(round func())) {
	pr := New()
	wns := make([]wnRef, k)
	for i := range wns {
		wns[i] = wnRef{proc: k - i, seq: 1, page: 0} // descending: the sort has work to do
	}
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
		zero := make([]int, k+1)
		var rounds uint64
		round := func() {
			rounds++
			st.vc = zero // the notices are fresh again; a clock is replaced, never written
			pr.applyWNs(c, st, wns)
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
			chains[w] = append(chains[w], ivalDiff{proc: w, seq: s, vc: slices.Clone(clock), d: &mem.Diff{}})
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
