package tm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func iv(proc, seq int, vc ...int) ivalDiff {
	return ivalDiff{&interval{proc: proc, seq: seq, vc: vc}, &mem.Diff{Page: 0}}
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
// the oracle for the chain merge in tm.go: every round it re-scans the
// remaining intervals for those with no remaining predecessor and emits
// the (seq, proc)-minimal one, first-wins on ties.
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

// sameOrder reports the first position where got departs from want.
// Identity is the diff pointer, not just the key: entries naming one
// interval twice must come out in the reference's order too.
func sameOrder(t *testing.T, what string, got, want []ivalDiff) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d diffs out, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].d != want[i].d || got[i].proc != want[i].proc || got[i].seq != want[i].seq {
			t.Fatalf("%s: order[%d] = p%d#%d (%p), want p%d#%d (%p)", what, i,
				got[i].proc, got[i].seq, got[i].d, want[i].proc, want[i].seq, want[i].d)
		}
	}
}

// randomHistory plays a causal history on procs processors — a few busy
// ones handing a lock around, the rest closing an interval now and then —
// and returns at most limit intervals of it in creation order, no writer
// contributing more than 40.
func randomHistory(rng *rand.Rand, procs, limit int) []ivalDiff {
	clocks := make([][]int, procs)
	for i := range clocks {
		clocks[i] = make([]int, procs)
	}
	busy := rng.Perm(procs)[:1+rng.Intn(min(procs, 8))]
	syncs := 1 + rng.Intn(4) // of 5 events: 1 is mostly concurrent, 4 nearly one chain
	var all []ivalDiff
	for len(all) < limit {
		p := busy[rng.Intn(len(busy))]
		if rng.Intn(10) == 0 {
			p = rng.Intn(procs)
		}
		if rng.Intn(5) < syncs {
			mergeVC(clocks[p], clocks[busy[rng.Intn(len(busy))]])
		} else if clocks[p][p] < 40 {
			clocks[p][p]++
			all = append(all, iv(p, clocks[p][p], slices.Clone(clocks[p])...))
		}
	}
	return all
}

// TestTopoOrderMatchesRef: the chain merge emits bit-for-bit the sequence
// of the reference loop at 4, 16 and 64 processors, on any input: a
// subset of a history (a page sees some of a writer's intervals), as
// production delivers it (grouped by writer), in creation order, shuffled,
// and with intervals named twice under fresh diff identities.
func TestTopoOrderMatchesRef(t *testing.T) {
	for _, procs := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(procs)))
		for round := 0; round < 60; round++ {
			all := randomHistory(rng, procs, 1+rng.Intn(160))
			all = slices.DeleteFunc(all, func(ivalDiff) bool { return rng.Intn(4) == 0 })
			what := fmt.Sprintf("%d procs, round %d", procs, round)

			sameOrder(t, what+", creation order", topoOrder(slices.Clone(all)), topoOrderRef(all))

			grouped := slices.Clone(all)
			slices.SortStableFunc(grouped, func(a, b ivalDiff) int { return a.proc - b.proc })
			sameOrder(t, what+", grouped", topoOrder(slices.Clone(grouped)), topoOrderRef(grouped))

			for i, n := 0, rng.Intn(1+len(all)/3); i < n; i++ {
				d := all[rng.Intn(len(all))]
				d.d = &mem.Diff{Page: i + 1}
				all = append(all, d)
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			sameOrder(t, what+", shuffled with duplicates", topoOrder(slices.Clone(all)), topoOrderRef(all))
		}
	}
}

// TestTopoOrderShapes: the two shapes the tables produce at scale, and
// the hand-built corners of the blocked counts.
func TestTopoOrderShapes(t *testing.T) {
	for _, sh := range [][2]int{{63, 1}, {15, 40}, {2, 1}} {
		in := topoShape(sh[0], sh[1])
		sameOrder(t, fmt.Sprintf("%dx%d", sh[0], sh[1]), topoOrder(slices.Clone(in)), topoOrderRef(in))
	}

	// p0's new head is still blocked when p0#1 goes: p0#2 saw p1#1, which
	// p0#1 released. p2#1 waits for all three.
	a1, a2 := iv(0, 1, 1, 0, 0), iv(0, 2, 2, 1, 0)
	b1 := iv(1, 1, 1, 1, 0)
	c1 := iv(2, 1, 2, 1, 1)
	in := []ivalDiff{a1, a2, b1, c1}
	want := []ivalDiff{a1, b1, a2, c1}
	sameOrder(t, "new head blocked by a third chain", topoOrder(slices.Clone(in)), want)
	sameOrder(t, "new head blocked by a third chain (ref)", topoOrderRef(in), want)

	// p2#1 saw p0 up to #2 and p1#1: p0#1 going leaves it blocked by the
	// same chain's next head, and it takes both chains to release it —
	// beside p0#3, which loses to it on seq.
	a1, a2, a3 := iv(0, 1, 1, 0, 0), iv(0, 2, 2, 0, 0), iv(0, 3, 3, 0, 0)
	b1 = iv(1, 1, 0, 1, 0)
	c1 = iv(2, 1, 2, 1, 1)
	in = []ivalDiff{a1, a2, a3, b1, c1}
	want = []ivalDiff{a1, b1, a2, c1, a3}
	sameOrder(t, "blocked twice by one chain", topoOrder(slices.Clone(in)), want)
	sameOrder(t, "blocked twice by one chain (ref)", topoOrderRef(in), want)
}

// TestTopoOrderCyclePanics: clocks that cover each other are no
// execution's; the sort says which page and which intervals instead of
// applying them in some order.
func TestTopoOrderCyclePanics(t *testing.T) {
	a, b, c := iv(0, 1, 1, 1, 0), iv(1, 1, 1, 1, 0), iv(2, 1, 0, 0, 1)
	for _, d := range []ivalDiff{a, b, c} {
		d.d.Page = 7
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"page 7", "#1 of proc 0", "#1 of proc 1"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}
		if strings.Contains(msg, "proc 2") {
			t.Errorf("panic %q names the interval that was applied", msg)
		}
	}()
	topoOrder([]ivalDiff{a, b, c})
	t.Fatal("a clock cycle was ordered")
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

// TestJoinVC: the join of two clocks writes neither. A clock that covers
// the other is returned as it is, without allocating; only incomparable
// clocks make a fresh one.
func TestJoinVC(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a, b    []int
		want    []int
		returns string // "a", "b" or "fresh"
	}{
		{"equal", []int{1, 2, 3}, []int{1, 2, 3}, []int{1, 2, 3}, "b"},
		{"a covers b", []int{4, 2, 3}, []int{1, 2, 3}, []int{4, 2, 3}, "a"},
		{"b covers a", []int{1, 2, 3}, []int{1, 5, 3}, []int{1, 5, 3}, "b"},
		{"incomparable", []int{4, 2, 0}, []int{1, 5, 3}, []int{4, 5, 3}, "fresh"},
	} {
		a0, b0 := slices.Clone(tc.a), slices.Clone(tc.b)
		got := joinVC(tc.a, tc.b)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: joinVC(%v, %v) = %v, want %v", tc.name, a0, b0, got, tc.want)
		}
		if !slices.Equal(tc.a, a0) || !slices.Equal(tc.b, b0) {
			t.Errorf("%s: joinVC wrote an input: a %v -> %v, b %v -> %v", tc.name, a0, tc.a, b0, tc.b)
		}
		var returned string
		switch &got[0] {
		case &tc.a[0]:
			returned = "a"
		case &tc.b[0]:
			returned = "b"
		default:
			returned = "fresh"
		}
		if returned != tc.returns {
			t.Errorf("%s: joinVC returned %s, want %s", tc.name, returned, tc.returns)
		}
		if tc.returns != "fresh" {
			if n := testing.AllocsPerRun(100, func() { joinVC(tc.a, tc.b) }); n != 0 {
				t.Errorf("%s: joinVC allocates %v objects, want 0", tc.name, n)
			}
		}
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
	pr := New()
	assemble(2, 2, pr, func(c *proto.Ctx) {
		if c.ID != 0 {
			return
		}
		p, st := c.E.Params, pr.ps[0]
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
		svc := &sim.Svc{E: c.E, P: c.P, Now: c.P.Clock}
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
	}).Run()
}

// assemble builds pr on nprocs processors sharing pages pages, all homed
// at processor 0, with do as every processor's body.
func assemble(nprocs, pages int, pr *TM, do func(c *proto.Ctx)) *proto.Machine {
	s := proto.Script{Homes: make([]int, pages), Do: do}
	return proto.Assemble(memsys.Default().ForProcs(nprocs), pr, s, nil, nil, nil)
}

// TestLogRowInsertedMidFault: processor 2 takes its first fault on a page
// written by processors 1 and 3. While it is parked in the request to
// processor 1, processor 0's row is inserted at the head of the page's
// log, shifting the others. The walk must go on to processor 3 — a walk
// by row index would land on processor 1 again and apply its diff twice.
func TestLogRowInsertedMidFault(t *testing.T) {
	pr := New()
	var reqs *uint64 // processor 2's diff requests
	m := assemble(4, 1, pr, func(c *proto.Ctx) {
		switch c.ID {
		case 1:
			c.WriteI32(0, 11)
			pr.closeInterval(c, pr.ps[1])
		case 3:
			c.WriteI32(4, 33)
			pr.closeInterval(c, pr.ps[3])
		case 0:
			for *reqs == 0 {
				c.P.Advance(50, stats.Busy)
			}
			if *reqs != 1 {
				t.Errorf("the row went in after %d requests, want inside the first", *reqs)
			}
			pr.logNotice(0, 0, 1)
		case 2:
			c.P.Advance(1_000_000, stats.Busy) // both writers have closed their intervals
			if len(pr.log[0]) != 2 {
				t.Errorf("log has %d rows before the fault, want processors 1 and 3", len(pr.log[0]))
			}
			st := pr.ps[2]
			st.vc = []int{0, 1, 0, 1} // as if a grant had delivered both notices
			if a, b := c.ReadI32(0), c.ReadI32(4); a != 11 || b != 33 {
				t.Errorf("read %d, %d after the fault; want 11, 33", a, b)
			}
			if got := c.P.Stats; got.DiffRequests != 2 || got.DiffsApplied != 2 {
				t.Errorf("%d requests, %d diffs applied; want one of each per writer", got.DiffRequests, got.DiffsApplied)
			}
			if len(pr.log[0]) != 3 || pr.log[0][0].writer != 0 {
				t.Errorf("log rows %+v: processor 0's row did not go in at the head", pr.log[0])
			}
		}
	})
	reqs = &m.Ctxs[2].P.Stats.DiffRequests
	m.Run()
}

// TestHybridDirectApplyAdvancesSeen: processor 0 holds page 0 (its home)
// when it acquires the lock processor 1 wrote the page under, and applies
// the piggybacked diff directly. A barrier then brings processor 2's write
// to the page, which invalidates it. The next fault asks processor 2 alone:
// the grant's notice is behind the page's seen clock, so its diff is not
// fetched again.
func TestHybridDirectApplyAdvancesSeen(t *testing.T) {
	pr := NewLazyHybrid()
	s := proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
		switch c.ID {
		case 1:
			c.Acquire(0)
			c.WriteI32(4, 11)
			c.Release(0)
		case 0:
			c.P.Advance(1_000_000, stats.Busy) // processor 1 has released
			c.Acquire(0)
			if got := c.P.Stats; got.DiffsApplied != 1 || got.DiffRequests != 0 || !c.M.Peek(0).Valid {
				t.Errorf("the grant applied %d diffs and requested %d, page valid %v; want its one diff applied directly",
					got.DiffsApplied, got.DiffRequests, c.M.Peek(0).Valid)
			}
			c.Release(0)
		case 2:
			c.P.Advance(2_000_000, stats.Busy) // processor 0 has acquired
			c.WriteI32(8, 33)
		}
		c.Barrier()
		if c.ID != 0 {
			return
		}
		if c.M.Peek(0).Valid {
			t.Error("page 0 is still valid after processor 2's notice")
		}
		if a, b := c.ReadI32(4), c.ReadI32(8); a != 11 || b != 33 {
			t.Errorf("read %d, %d after the fault; want 11, 33", a, b)
		}
		if got := c.P.Stats; got.DiffRequests != 1 || got.DiffsApplied != 2 {
			t.Errorf("%d requests and %d diffs applied in all; want the grant's diff and one request, to processor 2", got.DiffRequests, got.DiffsApplied)
		}
	}}
	m := proto.Assemble(memsys.Default().ForProcs(3), pr, s, nil, nil, nil)
	m.Run()
}
