package tm_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/proto"
	"aecdsm/internal/tm"
)

// shadowed is TreadMarks with the per-processor write-notice records the
// protocol used to keep, rebuilt on the side: every fresh notice a
// processor receives is recorded under (processor, page), unless Lazy
// Hybrid applied its diff directly, and a fault that makes the page valid
// clears the record. So at every fault the record holds the notices
// received since the page was last valid here — all ever received, on a
// page never valid here (the deleted tmProc.history), and the deleted
// tmPage.pending list on a page that has been. Every fault checks the set
// it is about to derive from the machine-wide log — each other writer's
// row between the page's seen clock and the faulting processor's clock —
// against the record. This is the invariant that licensed deleting both
// (DESIGN.md, "TreadMarks' write notices").
type shadowed struct {
	*tm.TM
	since      map[[2]int][]tm.Notice
	direct     map[[2]int]bool // Lazy Hybrid applied diffs of the page since it was last made valid by a fault
	n          shadowCounts
	mismatches []string
}

// shadowCounts is what a shadowed run checked.
type shadowCounts struct {
	faults      int // faults checked
	firstTouch  int // first-touch faults with something to fetch
	refault     int // faults on a page valid here before, with something to fetch
	afterDirect int // faults on a page Lazy Hybrid applied diffs of since it was last made valid
}

func (a *shadowCounts) add(b shadowCounts) {
	a.faults += b.faults
	a.firstTouch += b.firstTouch
	a.refault += b.refault
	a.afterDirect += b.afterDirect
}

func shadow(pr *tm.TM) *shadowed {
	s := &shadowed{TM: pr, since: map[[2]int][]tm.Notice{}, direct: map[[2]int]bool{}}
	pr.OnFreshNotice(func(proc int, n tm.Notice, direct bool) {
		k := [2]int{proc, n.Page}
		if direct {
			s.direct[k] = true
			return
		}
		s.since[k] = append(s.since[k], n)
	})
	return s
}

func (s *shadowed) Fault(c *proto.Ctx, page int, write bool) {
	k := [2]int{c.ID, page}
	want := slices.Clone(s.since[k])
	slices.SortFunc(want, func(a, b tm.Notice) int {
		return cmp.Or(cmp.Compare(a.Writer, b.Writer), cmp.Compare(a.Seq, b.Seq))
	})
	want = slices.Compact(want)
	got := s.FaultSet(c.ID, page)
	s.n.faults++
	what := "first touch"
	switch ever := c.M.Peek(page).EverValid; {
	case !ever && len(got) > 0:
		s.n.firstTouch++
	case ever:
		what = "fault"
		if len(got) > 0 {
			s.n.refault++
		}
		if s.direct[k] {
			what = "fault after a direct apply"
			s.n.afterDirect++
		}
	}
	if !slices.Equal(got, want) {
		s.mismatches = append(s.mismatches, fmt.Sprintf(
			"proc %d %s of page %d: log gives %v, notices received since it was last valid were %v", c.ID, what, page, got, want))
	}
	s.TM.Fault(c, page, write)
	delete(s.since, k)
	delete(s.direct, k)
}

// runShadowed runs one generated workload under TM and TM-LH with the
// shadow records attached and returns what they checked.
func runShadowed(t *testing.T, w check.Workload, fcfg *fault.Config) (n shadowCounts) {
	t.Helper()
	for _, mk := range []func() *tm.TM{tm.New, tm.NewLazyHybrid} {
		s := shadow(mk())
		prog := apps.NewSynth(w.Cfg)
		res := harness.RunFaultTraced(w.Params(), s, prog, nil, fcfg)
		if res.Deadlocked || res.VerifyErr != nil {
			t.Fatalf("seed %d procs %d %s: deadlocked=%v verify=%v", w.Seed, w.Procs, s.Name(), res.Deadlocked, res.VerifyErr)
		}
		if len(s.mismatches) > 0 {
			t.Fatalf("seed %d procs %d policy %q %s: %d of %d faults disagree with the received notices, first: %s",
				w.Seed, w.Procs, w.Policy, s.Name(), len(s.mismatches), s.n.faults, s.mismatches[0])
		}
		n.add(s.n)
	}
	return n
}

// TestLogMatchesReceivedHistory: at every fault, the log range the fault
// requests — each other writer's seqs between the page's seen clock and
// the processor's — equals the notices the processor has received for the
// page since it was last valid here, less those whose diffs Lazy Hybrid
// applied directly: at a first touch, every notice received; at a fault on
// a page valid here before, what the pending list used to hold; on a page
// still valid, nothing. On the checker's random workloads clean, under
// light faults, at 64 processors (tree barriers, sharded managers) and
// under every lock policy.
func TestLogMatchesReceivedHistory(t *testing.T) {
	clean, faulted, policySeeds := uint64(300), uint64(80), uint64(20)
	if testing.Short() {
		clean, faulted, policySeeds = 40, 10, 4
	}
	var n shadowCounts
	for seed := uint64(1); seed <= clean; seed++ {
		n.add(runShadowed(t, check.Generate(seed, 0), nil))
	}
	for seed := uint64(1); seed <= faulted; seed++ {
		fc, err := fault.ParseSpec("light")
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 1000 + seed
		n.add(runShadowed(t, check.Generate(seed, 0), &fc))
	}
	n.add(runShadowed(t, check.Generate(5, 64), nil))
	for _, k := range lockpolicy.Kinds() {
		for seed := uint64(1); seed <= policySeeds; seed++ {
			w := check.Generate(seed, 0)
			w.Policy = string(k)
			n.add(runShadowed(t, w, nil))
		}
	}
	t.Logf("%d faults checked: %d first touches and %d re-faults with something to fetch, %d faults after a direct apply",
		n.faults, n.firstTouch, n.refault, n.afterDirect)
	if n.firstTouch == 0 || n.refault == 0 || n.afterDirect == 0 {
		t.Fatalf("the check is vacuous: %+v", n)
	}
}

// TestMidFaultLogInsertion is the workload that caught a first-touch walk
// iterating the log's rows by index: while processor 1 was parked in a
// diff request, another writer closed its first interval on the page,
// its row was inserted ahead of the cursor, and the walk asked the same
// writer twice ("applied diff … twice in one episode"). The auditor is
// on; TM and TM-LH must agree with the ideal machine.
func TestMidFaultLogInsertion(t *testing.T) {
	kinds := []harness.ProtocolKind{harness.ProtoTM, harness.ProtoTMLH, harness.ProtoIdeal}
	if rep := check.RunWorkloadFault(check.Generate(12, 6), kinds, nil); rep.Failed() {
		t.Fatal(rep)
	}
}
