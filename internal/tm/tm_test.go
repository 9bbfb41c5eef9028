package tm

import (
	"testing"
	"testing/quick"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func iv(proc, seq int, vc ...int) ivalDiff {
	return ivalDiff{proc: proc, seq: seq, vc: vc, d: &mem.Diff{Page: 0}}
}

func TestBeforeSameProc(t *testing.T) {
	a := iv(1, 2, 0, 2, 0)
	b := iv(1, 5, 0, 5, 0)
	if !a.before(b) || b.before(a) {
		t.Fatal("same-proc ordering by seq")
	}
}

func TestBeforeCrossProc(t *testing.T) {
	// a = proc 0 interval 3; b = proc 1 interval 2 created after seeing
	// a (vc[0] = 3).
	a := iv(0, 3, 3, 0)
	b := iv(1, 2, 3, 2)
	if !a.before(b) {
		t.Fatal("b's clock covers a, so a happens-before b")
	}
	if b.before(a) {
		t.Fatal("mutual ordering impossible")
	}
}

func TestBeforeConcurrent(t *testing.T) {
	a := iv(0, 3, 3, 0)
	b := iv(1, 2, 0, 2)
	if a.before(b) || b.before(a) {
		t.Fatal("disjoint clocks are concurrent")
	}
}

func TestTopoOrderChain(t *testing.T) {
	// A lock chain: p0 iv1 -> p1 iv1 -> p0 iv2 -> p2 iv1.
	c1 := iv(0, 1, 1, 0, 0)
	c2 := iv(1, 1, 1, 1, 0)
	c3 := iv(0, 2, 2, 1, 0)
	c4 := iv(2, 1, 2, 1, 1)
	got := topoOrder([]ivalDiff{c4, c3, c2, c1})
	want := []ivalDiff{c1, c2, c3, c4}
	for i := range want {
		if got[i].proc != want[i].proc || got[i].seq != want[i].seq {
			t.Fatalf("topoOrder[%d] = p%d#%d, want p%d#%d",
				i, got[i].proc, got[i].seq, want[i].proc, want[i].seq)
		}
	}
}

// TestTopoOrderProperty: the output is a permutation respecting
// happens-before, for randomly generated causal histories.
func TestTopoOrderProperty(t *testing.T) {
	f := func(script []uint8) bool {
		const n = 4
		// Simulate n processors exchanging causality: each event either
		// closes an interval on a processor or syncs one processor's
		// clock with another's.
		clocks := make([][]int, n)
		for i := range clocks {
			clocks[i] = make([]int, n)
		}
		var all []ivalDiff
		for _, b := range script {
			p := int(b) % n
			if b%2 == 0 {
				q := int(b/2) % n
				for k := 0; k < n; k++ {
					if clocks[q][k] > clocks[p][k] {
						clocks[p][k] = clocks[q][k]
					}
				}
			} else {
				clocks[p][p]++
				all = append(all, iv(p, clocks[p][p], append([]int(nil), clocks[p]...)...))
			}
		}
		out := topoOrder(all)
		if len(out) != len(all) {
			return false
		}
		// No interval may appear before one that happens-before it.
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[j].before(out[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// topoOrderRef is the original recompute-readiness O(n³) sort, kept as
// the oracle for the Kahn-with-index-heap implementation in tm.go: every
// round it re-scans the remaining intervals for those with no remaining
// predecessor and emits the (seq, proc)-minimal one, first-wins on ties.
func topoOrderRef(in []ivalDiff) []ivalDiff {
	out := make([]ivalDiff, 0, len(in))
	rest := append([]ivalDiff(nil), in...)
	for len(rest) > 0 {
		pick := -1
		for i, cand := range rest {
			ready := true
			for j, other := range rest {
				if i != j && other.before(cand) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if pick < 0 || cand.seq < rest[pick].seq ||
				(cand.seq == rest[pick].seq && cand.proc < rest[pick].proc) {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0 // cycle cannot happen with consistent clocks; be safe
		}
		out = append(out, rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
	}
	return out
}

// TestTopoOrderMatchesRef: the optimized sort emits bit-for-bit the same
// sequence as the reference loop, including duplicate (proc, seq) entries
// (one interval's diffs for several pages share ordering metadata) and
// concurrent intervals where only the deterministic tie-break orders the
// output. Identity is checked on the diff pointers, not just the keys.
func TestTopoOrderMatchesRef(t *testing.T) {
	f := func(script []uint8, dup uint8) bool {
		const n = 4
		clocks := make([][]int, n)
		for i := range clocks {
			clocks[i] = make([]int, n)
		}
		var all []ivalDiff
		for _, b := range script {
			p := int(b) % n
			if b%2 == 0 {
				q := int(b/2) % n
				for k := 0; k < n; k++ {
					if clocks[q][k] > clocks[p][k] {
						clocks[p][k] = clocks[q][k]
					}
				}
			} else {
				clocks[p][p]++
				all = append(all, iv(p, clocks[p][p], append([]int(nil), clocks[p]...)...))
			}
		}
		// Duplicate some intervals under fresh diff identities, the
		// shape a multi-page interval produces.
		for i := 0; i < len(all) && i < int(dup); i++ {
			d := all[i]
			d.d = &mem.Diff{Page: i + 1}
			all = append(all, d)
		}
		want := topoOrderRef(all)
		got := topoOrder(all)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].d != want[i].d || got[i].proc != want[i].proc || got[i].seq != want[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTopoOrderScratchReuse: back-to-back sorts through one scratch (the
// in-engine usage) stay identical to fresh-scratch sorts.
func TestTopoOrderScratchReuse(t *testing.T) {
	var sc topoScratch
	for round := 0; round < 3; round++ {
		var in []ivalDiff
		for p := 0; p < 3; p++ {
			for s := 1; s <= 2+round; s++ {
				vc := make([]int, 3)
				vc[p] = s
				in = append(in, iv(p, s, vc...))
			}
		}
		want := topoOrderRef(in)
		got := sc.order(in)
		for i := range want {
			if got[i].proc != want[i].proc || got[i].seq != want[i].seq {
				t.Fatalf("round %d: order[%d] = p%d#%d, want p%d#%d",
					round, i, got[i].proc, got[i].seq, want[i].proc, want[i].seq)
			}
		}
	}
}

func TestCollectWNsBounds(t *testing.T) {
	pr := New()
	// Minimal attach surrogate: 2 procs with intervals.
	pr.nprocs = 2
	pr.ps = []*tmProc{
		{id: 0, vc: []int{2, 0}, ivals: []*interval{
			{proc: 0, seq: 1, pages: []int{3}},
			{proc: 0, seq: 2, pages: []int{4, 5}},
		}},
		{id: 1, vc: []int{0, 0}},
	}
	wns := pr.collectWNs(1, []int{2, 0}, []int{0, 0})
	if len(wns) != 3 {
		t.Fatalf("got %d write notices, want 3", len(wns))
	}
	wns = pr.collectWNs(1, []int{2, 0}, []int{1, 0})
	if len(wns) != 2 {
		t.Fatalf("incremental: got %d, want 2", len(wns))
	}
	if wns[0].seq != 2 {
		t.Fatalf("seq = %d, want 2", wns[0].seq)
	}
}

func TestMergeVC(t *testing.T) {
	dst := []int{1, 5, 2}
	mergeVC(dst, []int{3, 4, 2})
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 2 {
		t.Fatalf("mergeVC = %v", dst)
	}
}

func TestLazyHybridName(t *testing.T) {
	if New().Name() != "TM" || !NewLazyHybrid().hybrid {
		t.Fatal("constructors")
	}
	if NewLazyHybrid().Name() != "TM-LH" {
		t.Fatal("LH name")
	}
}

// TestConsumedTwinsRecycled: closeInterval steals an interval's twins for
// lazy diffing; once forceDiff (the generator's own re-twin) or svcDiff (a
// remote diff request) has made the diff, the twin is the buffer the next
// MakeTwin on that processor gets, and the diff does not alias it.
func TestConsumedTwinsRecycled(t *testing.T) {
	e, pr, ctxs := rig(2, 2)
	p := e.Params
	e.Spawn(1, func(*sim.Proc) {})
	e.Spawn(0, func(*sim.Proc) {
		c, st := ctxs[0], pr.ps[0]
		c.WriteI32(0, 7)
		c.WriteI32(p.PageSize, 9)
		frames := []*mem.Frame{c.M.Frame(0), c.M.Frame(1)}
		twins := []*byte{&frames[0].Twin[0], &frames[1].Twin[0]}
		pr.closeInterval(c, st)
		rec := st.pages[1].undiffed
		held := func() (n int) {
			for _, tw := range rec.twins {
				if tw != nil {
					n++
				}
			}
			return n
		}
		if frames[0].Twin != nil || frames[1].Twin != nil || rec == nil || held() != 2 {
			t.Errorf("closeInterval left twins %v, %v and interval %+v; want both stolen into it", frames[0].Twin != nil, frames[1].Twin != nil, rec)
			return
		}
		pr.forceDiff(c, st, 0, stats.Data)
		svc := &sim.Svc{E: e, P: c.P, Now: c.P.Clock}
		diffs := []*mem.Diff{rec.diffs[rec.slot(0)], pr.svcDiff(svc, st, rec, 1)}
		if held() != 0 {
			t.Errorf("%d twins left in the interval after both diffs were made", held())
		}
		// LIFO: page 1's twin went back last.
		for _, pg := range []int{1, 0} {
			c.M.MakeTwin(pg)
			if &frames[pg].Twin[0] != twins[pg] {
				t.Errorf("page %d: the next twin is a new buffer, want the consumed one back", pg)
			}
			c.WriteI32(pg*p.PageSize, 0) // the page and its new twin move on; the diff must not follow
		}
		for pg, want := range []byte{7, 9} {
			out := make([]byte, p.PageSize)
			diffs[pg].Apply(out)
			if diffs[pg].DataBytes() != 4 || out[0] != want {
				t.Errorf("page %d: diff carries %d bytes, first %d; want the 4-byte write of %d", pg, diffs[pg].DataBytes(), out[0], want)
			}
		}
	})
	e.Start()
}

// rig attaches a TreadMarks instance to a bare engine of nprocs processors
// sharing pages pages, all homed at processor 0: what the harness builds,
// without a program.
func rig(nprocs, pages int) (*sim.Engine, *TM, []*proto.Ctx) {
	p := memsys.Default().ForProcs(nprocs)
	e := sim.New(p, stats.NewRun("t", "TM", p.NumProcs))
	space := mem.NewSpace(p.PageSize)
	space.Alloc("data", pages*p.PageSize, 0)
	pr := New()
	ctxs := make([]*proto.Ctx, p.NumProcs)
	for i := range ctxs {
		ctxs[i] = proto.NewCtx(e.Procs[i], e, mem.NewProcMem(space, i), space, pr, i, p.NumProcs)
	}
	pr.Attach(e, space, ctxs)
	return e, pr, ctxs
}

// TestLogRowInsertedMidFault: processor 2 takes its first fault on a page
// written by processors 1 and 3. While it is parked in the request to
// processor 1, processor 0's row is inserted at the head of the page's
// log, shifting the others. The walk must go on to processor 3 — a walk
// by row index would land on processor 1 again and apply its diff twice.
func TestLogRowInsertedMidFault(t *testing.T) {
	e, pr, ctxs := rig(4, 1)
	write := func(id int, off mem.Addr, v int32) func(*sim.Proc) {
		return func(*sim.Proc) {
			ctxs[id].WriteI32(off, v)
			pr.closeInterval(ctxs[id], pr.ps[id])
		}
	}
	e.Spawn(1, write(1, 0, 11))
	e.Spawn(3, write(3, 4, 33))
	reqs := &ctxs[2].P.Stats.DiffRequests
	e.Spawn(0, func(p *sim.Proc) {
		for *reqs == 0 {
			p.Advance(50, stats.Busy)
		}
		if *reqs != 1 {
			t.Errorf("the row went in after %d requests, want inside the first", *reqs)
		}
		pr.logNotice(0, 0, 1)
	})
	e.Spawn(2, func(p *sim.Proc) {
		p.Advance(1_000_000, stats.Busy) // both writers have closed their intervals
		if len(pr.log[0]) != 2 {
			t.Errorf("log has %d rows before the fault, want processors 1 and 3", len(pr.log[0]))
		}
		st := pr.ps[2]
		st.vc[1], st.vc[3] = 1, 1 // as if a grant had delivered both notices
		c := ctxs[2]
		if a, b := c.ReadI32(0), c.ReadI32(4); a != 11 || b != 33 {
			t.Errorf("read %d, %d after the fault; want 11, 33", a, b)
		}
		if got := c.P.Stats; got.DiffRequests != 2 || got.DiffsApplied != 2 {
			t.Errorf("%d requests, %d diffs applied; want one of each per writer", got.DiffRequests, got.DiffsApplied)
		}
		if len(pr.log[0]) != 3 || pr.log[0][0].writer != 0 {
			t.Errorf("log rows %+v: processor 0's row did not go in at the head", pr.log[0])
		}
	})
	e.Start()
}
