package lint

import (
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aecdsm/internal/lint/loader"
)

// root is the module's root, seen from this package's directory.
const root = "../.."

// An allowance excuses the findings of one rule in one file of the module
// (a path from the module root): with a construct, those on the one line
// whose source contains it; with none, every finding of the file. No
// allowance excuses an engine call (see engineCall).
type allowance struct {
	rule, file, construct, reason string
}

// allowances is every excused finding in the module, each with why the
// invariant holds anyway. A finding none of them covers fails TestModule,
// and so does an allowance that covers nothing or a second line, gives no
// reason or names no rule.
var allowances = []allowance{
	{"singlethread", "internal/sim/engine.go", "iter.Pull(",
		"the engine's coroutine hand-off: next and yield switch goroutines directly, so still only one runs"},
	{"singlethread", "internal/mem/diff.go", "var diffIDs atomic.Uint64",
		"a process-global diff ID counter shared by parallel engines: serialized within one engine, atomic only for the race detector"},
	{"singlethread", "internal/mem/diff.go", "return diffIDs.Add(1)",
		"the same counter's one increment"},
	{"singlethread", "internal/harness/sched.go", "",
		"the experiment scheduler's worker pool runs whole isolated engines; no engine-internal state is touched from more than one goroutine"},
}

// excuse matches findings against the allowances. It returns the findings
// none covers and what is wrong with the allowances. line returns the
// source line a position is on.
func excuse(findings []Finding, rows []allowance, line func(token.Position) string) (left []Finding, problems []string) {
	first := make([]int, len(rows)) // the line a row first excused, 0 for none
	again := make([]int, len(rows)) // another line a construct row excused
	for _, f := range findings {
		i := -1
		if !strings.HasPrefix(f.Message, engineCall) {
			i = slices.IndexFunc(rows, func(a allowance) bool {
				return a.rule == f.Rule && strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "/"+a.file) &&
					strings.Contains(line(f.Pos), a.construct)
			})
		}
		switch {
		case i < 0:
			left = append(left, f)
		case first[i] == 0:
			first[i] = f.Pos.Line
		case first[i] != f.Pos.Line && rows[i].construct != "" && again[i] == 0:
			again[i] = f.Pos.Line
		}
	}
	for i, a := range rows {
		switch {
		case !slices.ContainsFunc(Analyzers(), func(r Rule) bool { return r.Name == a.rule }):
			problems = append(problems, fmt.Sprintf("allowance %q in %s names no rule", a.rule, a.file))
		case a.reason == "":
			problems = append(problems, fmt.Sprintf("allowance %s %q in %s gives no reason", a.rule, a.construct, a.file))
		case first[i] == 0:
			problems = append(problems, fmt.Sprintf("allowance %s %q in %s excuses no finding", a.rule, a.construct, a.file))
		case again[i] != 0:
			problems = append(problems, fmt.Sprintf("allowance %s %q in %s excuses lines %d and %d; a construct excuses one line", a.rule, a.construct, a.file, first[i], again[i]))
		}
	}
	return left, problems
}

// sourceLine reads the line at pos from its file.
func sourceLine(pos token.Position) string {
	b, err := os.ReadFile(pos.Filename)
	if err != nil {
		return ""
	}
	return strings.Split(string(b), "\n")[pos.Line-1]
}

// TestModule applies both rules to every package of the module. It fails on
// a finding no allowance excuses and on a wrong allowance.
func TestModule(t *testing.T) {
	// go list reads the module in a subprocess, which the test cache does
	// not see. Reading every directory here makes a new, removed or edited
	// file invalidate a cached pass.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	for _, pkg := range pkgs {
		found, err := RunPackage(pkg, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		findings = append(findings, found...)
	}
	left, problems := excuse(findings, allowances, sourceLine)
	for _, f := range left {
		t.Error(f)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExcuse pins the allowance table's own checks: an allowance excuses
// only its rule's findings, on the one line holding its construct or, with
// none, in its whole file; no allowance excuses an engine call; and an
// allowance that names no rule, gives no reason, covers nothing or covers a
// second line is reported.
func TestExcuse(t *testing.T) {
	lines := []string{
		"p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {",
		"go func() {",
		"p.Advance(1, stats.Busy)",
		"var diffIDs atomic.Uint64",
		"next, stop := iter.Pull(seq)",
	}
	at := func(file string, line int) token.Position {
		return token.Position{Filename: "/m/internal/" + file, Line: line}
	}
	findings := []Finding{
		{"singlethread", at("sim/engine.go", 1), "iter.Pull spawns a second runner"},
		{"singlethread", at("harness/sched.go", 2), "go statement spawns a second runner"},
		{"singlethread", at("harness/sched.go", 3), engineCall + "Proc.Advance called from a driver-layer file"},
		{"singlethread", at("mem/diff.go", 4), "use of sync/atomic.Uint64"},
		{"singlethread", at("sim/engine.go", 5), "iter.Pull spawns a second runner"},
	}
	rows := []allowance{
		{"singlethread", "internal/sim/engine.go", "iter.Pull(", "the hand-off"},
		{"singlethread", "internal/harness/sched.go", "", "the worker pool"},
		{"singlethread", "internal/harness/sched.go", "p.Advance(", "an engine call"},
		{"determinism", "internal/mem/diff.go", "diffIDs", "another rule's"},
		{"singlethread", "internal/mem/diff.go", "diffIDs.Add(1)", "another line's"},
		{"blockingcharge", "internal/sim/engine.go", "iter.Pull(", "a deleted rule"},
		{"singlethread", "internal/mem/diff.go", "var diffIDs", ""},
	}
	left, problems := excuse(findings, rows, func(p token.Position) string { return lines[p.Line-1] })
	if len(left) != 1 || left[0].String() != "/m/internal/harness/sched.go:3: "+engineCall+"Proc.Advance called from a driver-layer file (singlethread)" {
		t.Errorf("left %v, want the engine call alone", left)
	}
	want := []string{
		`allowance singlethread "iter.Pull(" in internal/sim/engine.go excuses lines 1 and 5; a construct excuses one line`,
		`allowance singlethread "p.Advance(" in internal/harness/sched.go excuses no finding`,
		`allowance determinism "diffIDs" in internal/mem/diff.go excuses no finding`,
		`allowance singlethread "diffIDs.Add(1)" in internal/mem/diff.go excuses no finding`,
		`allowance "blockingcharge" in internal/sim/engine.go names no rule`,
		`allowance singlethread "var diffIDs" in internal/mem/diff.go gives no reason`,
	}
	if !slices.Equal(problems, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// cases are source files placed in one layer of the module (checked as
// aecdsm/internal/<layer>), each with the findings both rules must report
// on it, in source order, as fragments of their messages. They import the
// real standard library and simulator packages.
var cases = []struct {
	name, layer, src string
	want             []string
}{
	// singlethread
	{"S1 a goroutine in Munin's handleHomeAck", "munin", `
import "aecdsm/internal/sim"

func handleHomeAck(s *sim.Svc) { go s.Wake(s.P) }
`, []string{"go statement spawns a second runner"}},

	{"iter.Pull called, instantiated or referenced", "sim", `
import "iter"

func coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq)
	defer stop()
	next()
	_, stop2 := iter.Pull2[int, int](seq2)
	stop2()
	pull := iter.Pull[int]
	_ = pull
}

// Ranging over a push iterator stays on the caller's goroutine.
func rangeOverFunc(seq iter.Seq[int]) (total int) {
	for x := range seq {
		total += x
	}
	return total
}
`, []string{"iter.Pull spawns", "iter.Pull2 spawns", "iter.Pull spawns"}},

	{"channels and select", "proto", `
func channels() {
	ch := make(chan int)
	ch <- 1
	<-ch
	for range ch {
	}
	_ = make([]int, len(ch))
	select {}
}
`, []string{"channel creation", "channel send", "channel receive", "range over a channel", "select statement"}},

	// A mutex around a protocol operation is never contended, because only
	// one runner exists: every run passes with it, so only the rule sees it.
	{"S2 a package mutex in TreadMarks' Acquire", "tm", `
import "sync"

var acqMu sync.Mutex

type procState struct{ grant []int }

func (st *procState) Acquire(lock int) {
	acqMu.Lock()
	st.grant = nil
	acqMu.Unlock()
}
`, []string{"use of sync.Mutex", "use of sync.Lock", "use of sync.Unlock"}},

	{"sync/atomic", "mem", `
import "sync/atomic"

var ids atomic.Uint64

func nextID() uint64 { return ids.Add(1) }
`, []string{"use of sync/atomic.Uint64", "use of sync/atomic.Add"}},

	{"a goroutine in a driver layer", "harness", `
import "sync"

func fan(n int, run func(int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	wg.Wait()
}
`, []string{"use of sync.WaitGroup", "use of sync.Add", "go statement", "use of sync.Done", "use of sync.Wait"}},

	// Cross-engine code drives whole runs; an engine primitive called from
	// a driver-layer file that uses concurrency steps inside one engine.
	{"engine calls beside concurrency in a driver layer", "harness", `
import (
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func stepInside(p *sim.Proc, s *sim.Svc, e *sim.Engine, c *proto.Ctx, done chan bool) {
	p.Advance(10, stats.Busy)
	p.Checkpoint()
	s.Send(1, 0, 8, nil, nil)
	e.SendFrom(p, stats.Synch, 1, 0, 8, nil, nil)
	c.Barrier()
	_ = p.Blocked()
	_ = stats.NewRun("", "", 1)
	done <- true
}
`, []string{"primitive Proc.Advance", "primitive Proc.Checkpoint", "primitive Svc.Send", "primitive Engine.SendFrom", "primitive Ctx.Barrier", "channel send"}},

	{"engine calls in a driver layer without concurrency", "check", `
import (
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func body(p *sim.Proc) { p.Advance(1, stats.Busy) }
`, nil},

	{"apps is outside singlethread's scope", "apps", `
func spawn(work func()) { go work() }
`, nil},

	{"trace is outside both scopes", "trace", `
import "time"

func stamp(work func()) time.Time {
	go work()
	return time.Now()
}
`, nil},

	// determinism
	{"D3 the wall clock in apps.seedStream", "apps", `
import "time"

func seedStream(base, stream uint64) uint64 {
	return (base ^ uint64(time.Now().UnixNano())) + stream
}
`, []string{"time.Now reads the wall clock"}},

	{"global math/rand", "lap", `
import "math/rand"

func pick(n int) int { return rand.Intn(n) }

func seeded(n int) int { return rand.New(rand.NewSource(1)).Intn(n) }
`, []string{"global math/rand.Intn"}},

	{"a charge in map order, in nested ranges too", "aec", `
import (
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func charges(p *sim.Proc, costs map[int]uint64, nested map[int]map[int]uint64) {
	for _, cost := range costs {
		p.Advance(cost, stats.Data)
	}
	// Both ranges see this call; it is one finding.
	for _, inner := range nested {
		for _, cost := range inner {
			p.Advance(cost, stats.Data)
		}
	}
}
`, []string{"Proc.Advance inside range over a map charges cycles", "Proc.Advance inside range over a map charges cycles"}},

	// The known blind spot: an order-sensitive call made through a
	// package-local helper is not seen.
	{"a charge in map order through a helper", "aec", `
import (
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func charges(p *sim.Proc, costs map[int]uint64) {
	for _, cost := range costs {
		charge(p, cost)
	}
}

func charge(p *sim.Proc, cost uint64) { p.Advance(cost, stats.Data) }
`, nil},

	// A lock manager's grant decisions must not leak map order: a scoring
	// pass in queue order is clean, a send per waiter in map order is not.
	{"a send in map order", "proto", `
import "aecdsm/internal/sim"

func pickNext(queue []int, affinity map[int]int) int {
	best, bestScore := -1, -1
	for _, p := range queue {
		if s := affinity[p]; s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

func grants(s *sim.Svc, waiting map[int]bool) {
	s.ChargeList(len(waiting))
	for p := range waiting {
		s.Send(p, 1, 8, nil, nil)
	}
}
`, []string{"Svc.Send inside range over a map sends a message"}},

	// The emitting layers trace through trace.Emitter: an emission in map
	// order puts the events of one run in a per-run order.
	{"a trace emission in map order", "aec", `
import "aecdsm/internal/trace"

func arrivals(e trace.Emitter, m map[int]bool) {
	for k := range m {
		e.Event(0, k, trace.KindBarrierArrive, 0, 0)
	}
}
`, []string{"Emitter.Event inside range over a map emits a trace event"}},

	// Emitter's methods are matched by receiver: the lock manager's Lock
	// shares a name with Emitter.Lock and is a read.
	{"a lock manager read in map order", "tm", `
import "aecdsm/internal/proto"

func holders(lm *proto.LockMgr, m map[int]bool) (n int) {
	for lock := range m {
		if lm.Lock(lock).Held {
			n++
		}
	}
	return n
}
`, nil},

	// The barrier-arrival shape: lock IDs gathered from a map into a list
	// that goes out in a message. A receiver that re-sorts the list hides
	// the missing sort from every run.
	{"an append in map order", "aec", `
func arrivalLocks(held map[int]bool) []int {
	lockIDs := make([]int, 0, len(held))
	for lock := range held {
		lockIDs = append(lockIDs, lock)
	}
	return lockIDs
}
`, []string{`append to "lockIDs" inside range over a map`}},

	{"appends sorted afterwards or kept local", "aec", `
import (
	"slices"
	"sort"
)

func pages(m map[int]int) ([]int, []int, int) {
	var pages, writers []int
	for pg, w := range m {
		pages = append(pages, pg)
		writers = append(writers, w)
		var local []int
		local = append(local, pg)
		_ = local
	}
	sort.Ints(pages)
	total := 0
	for _, v := range m {
		total += v
	}
	slices.Sort(writers)
	return pages, writers, total
}
`, nil},

	{"a labeled range in a case clause", "check", `
func collect(m map[int]int, kind int) []int {
	var out []int
	switch kind {
	case 1:
	outer:
		for k := range m {
			if k < 0 {
				continue outer
			}
			out = append(out, k)
		}
	}
	return out
}
`, []string{`append to "out" inside range over a map`}},

	{"a range in a select clause", "apps", `
func drain(m map[int]int, ready chan bool) (out []int) {
	select {
	case <-ready:
		for k := range m {
			out = append(out, k)
		}
	}
	return out
}
`, []string{`append to "out" inside range over a map`}},
}

// TestCases type-checks each case against build-cache export data and
// compares what the rules report with what it wants.
func TestCases(t *testing.T) {
	fset := token.NewFileSet()
	imp, err := loader.Importer(fset, root, "iter", "math/rand", "slices", "sort", "sync", "sync/atomic", "time",
		"aecdsm/internal/proto", "aecdsm/internal/sim", "aecdsm/internal/stats", "aecdsm/internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			name := strings.ReplaceAll(c.name, " ", "_") + ".go"
			src := "package " + c.layer + "\n" + c.src
			pkg, err := loader.Check(fset, imp, "aecdsm/internal/"+c.layer, []string{name}, map[string]string{name: src})
			if err != nil {
				t.Fatal(err)
			}
			findings, _ := RunPackage(pkg, Analyzers())
			ok := len(findings) == len(c.want)
			for i := 0; ok && i < len(findings); i++ {
				ok = strings.Contains(findings[i].Message, c.want[i])
			}
			if !ok {
				var got []string
				for _, f := range findings {
					got = append(got, f.String())
				}
				t.Errorf("findings:\n%s\nwant, in order:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}
