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

// shadowed is TreadMarks with the per-processor write-notice history the
// protocol used to keep, rebuilt on the side: every fresh notice a
// processor receives is recorded under (processor, page), and every
// first-touch fault checks that the request set it is about to derive from
// the machine-wide log — each other writer's row, cut at the faulting
// processor's clock — is exactly that history. This is the invariant that
// licensed deleting tmProc.history (DESIGN.md, "TreadMarks' write
// notices").
type shadowed struct {
	*tm.TM
	history    map[[2]int][]tm.Notice
	faults     int // first-touch faults checked
	nonEmpty   int // of them, with something to fetch
	mismatches []string
}

func shadow(pr *tm.TM) *shadowed {
	s := &shadowed{TM: pr, history: map[[2]int][]tm.Notice{}}
	pr.OnFreshNotice(func(proc int, n tm.Notice) {
		k := [2]int{proc, n.Page}
		s.history[k] = append(s.history[k], n)
	})
	return s
}

func (s *shadowed) Fault(c *proto.Ctx, page int, write bool) {
	if f := c.M.Peek(page); !f.Valid && !f.EverValid {
		want := slices.Clone(s.history[[2]int{c.ID, page}])
		slices.SortFunc(want, func(a, b tm.Notice) int {
			return cmp.Or(cmp.Compare(a.Writer, b.Writer), cmp.Compare(a.Seq, b.Seq))
		})
		want = slices.Compact(want)
		got := s.FirstTouchSet(c.ID, page)
		s.faults++
		if len(got) > 0 {
			s.nonEmpty++
		}
		if !slices.Equal(got, want) {
			s.mismatches = append(s.mismatches, fmt.Sprintf(
				"proc %d first touch of page %d: log gives %v, received notices were %v", c.ID, page, got, want))
		}
	}
	s.TM.Fault(c, page, write)
}

// runShadowed runs one generated workload under TM and TM-LH with the
// shadow history attached and returns how many first-touch faults had a
// non-empty request set.
func runShadowed(t *testing.T, w check.Workload, fcfg *fault.Config) (nonEmpty int) {
	t.Helper()
	for _, mk := range []func() *tm.TM{tm.New, tm.NewLazyHybrid} {
		s := shadow(mk())
		prog := apps.NewSynth(w.Cfg)
		res := harness.RunFaultTraced(w.Params(), s, prog, nil, fcfg)
		if res.Deadlocked || res.VerifyErr != nil {
			t.Fatalf("seed %d procs %d %s: deadlocked=%v verify=%v", w.Seed, w.Procs, s.Name(), res.Deadlocked, res.VerifyErr)
		}
		if len(s.mismatches) > 0 {
			t.Fatalf("seed %d procs %d policy %q %s: %d of %d first-touch faults disagree with the received history, first: %s",
				w.Seed, w.Procs, w.Policy, s.Name(), len(s.mismatches), s.faults, s.mismatches[0])
		}
		nonEmpty += s.nonEmpty
	}
	return nonEmpty
}

// TestLogMatchesReceivedHistory: at every first-touch fault, the log
// prefix the fault requests equals the set of notices the processor has
// received for the page — on the checker's random workloads clean, under
// light faults, at 64 processors (tree barriers, sharded managers) and
// under every lock policy.
func TestLogMatchesReceivedHistory(t *testing.T) {
	clean, faulted, policySeeds := uint64(300), uint64(80), uint64(20)
	if testing.Short() {
		clean, faulted, policySeeds = 40, 10, 4
	}
	nonEmpty := 0
	for seed := uint64(1); seed <= clean; seed++ {
		nonEmpty += runShadowed(t, check.Generate(seed, 0), nil)
	}
	if nonEmpty == 0 {
		t.Fatal("no first-touch fault had anything to fetch: the check is vacuous")
	}
	for seed := uint64(1); seed <= faulted; seed++ {
		fc, err := fault.ParseSpec("light")
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 1000 + seed
		runShadowed(t, check.Generate(seed, 0), &fc)
	}
	runShadowed(t, check.Generate(5, 64), nil)
	for _, k := range lockpolicy.Kinds() {
		for seed := uint64(1); seed <= policySeeds; seed++ {
			w := check.Generate(seed, 0)
			w.Policy = string(k)
			runShadowed(t, w, nil)
		}
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
	if rep := check.RunWorkload(check.Generate(12, 6), kinds); rep.Failed() {
		t.Fatal(rep)
	}
}
