package tm

import (
	"fmt"
	"slices"
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// BenchmarkTMFault is the allocation gate of the fault path (CI's
// bench-smoke asserts 0 allocs/op on every case): at steady state a fault
// runs on the faulting processor's scratch and the machine's one log, and
// a notice for a page never valid here is counted and dropped.
//
//   - refault/writers=k: processor 0 receives one notice from each of k
//     writers for a page it holds, and faults on it: the pending list is
//     sorted and consumed, k requests go out by pointer, the servers fill
//     the requester's buffer from their cached diffs, the k diffs are
//     ordered and applied.
//   - barrier-notices: a barrier release's notices for 64 pages the
//     processor never touched.
func BenchmarkTMFault(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("refault/writers=%d", k), func(b *testing.B) {
			pr := New()
			wns := make([]wnRef, k)
			for i := range wns {
				wns[i] = wnRef{proc: k - i, seq: 1, page: 0} // descending: the sort has work to do
			}
			assemble(k+1, 1, pr, func(c *proto.Ctx) {
				// Every writer closes one interval on the page; page 0 is
				// homed at processor 0, so its first access there is no
				// fault.
				if w := c.ID; w > 0 {
					c.WriteI32(mem.Addr(4*w), int32(w))
					pr.closeInterval(c, pr.ps[w])
					return
				}
				st := pr.ps[0]
				c.P.Advance(10_000_000, stats.Busy) // the writers are done
				round := func() {
					clear(st.vc) // the notices are fresh again
					pr.applyWNs(c, st, wns)
					c.ReadI32(0)
				}
				round() // first diffs made and cached, scratch grown
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.StopTimer()
				if got := c.ReadI32(mem.Addr(4 * k)); got != int32(k) {
					b.Errorf("word of writer %d reads %d", k, got)
				}
				if want := uint64(k) * uint64(b.N+1); c.P.Stats.DiffsApplied != want {
					b.Errorf("%d diffs applied, want %d", c.P.Stats.DiffsApplied, want)
				}
			}).Run()
		})
	}
	b.Run("barrier-notices", func(b *testing.B) {
		const pages = 64
		pr := New()
		c := assemble(2, pages, pr, nil).Ctxs[1] // homed at processor 0: never valid at 1
		st := pr.ps[1]
		wns := make([]wnRef, pages)
		for pg := range wns {
			wns[pg] = wnRef{proc: 0, seq: 1, page: pg}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.vc[0] = 0
			if fresh := pr.applyWNs(c, st, wns); fresh != pages {
				b.Fatalf("%d fresh notices, want %d", fresh, pages)
			}
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

// BenchmarkTopoOrder is the happens-before order alone, scratch reused as
// in the engine, over the shapes the tables produce: long hand-off chains
// from a few writers (n ≫ k), and one interval from every writer (n = k).
// CI asserts 0 allocs/op.
func BenchmarkTopoOrder(b *testing.B) {
	for _, sh := range [][2]int{{15, 40}, {4, 100}, {15, 10}, {63, 1}, {8, 1}, {2, 1}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			src := topoShape(sh[0], sh[1])
			in := make([]ivalDiff, len(src))
			var sc topoScratch
			sc.order(append(in[:0], src...)) // scratch grown
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(in, src)
				sc.order(in)
			}
		})
	}
}
