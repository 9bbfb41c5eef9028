package tm_test

import (
	"fmt"
	"slices"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/tm"
)

// frozen is TreadMarks watched for writes to a published vector clock
// (DESIGN.md, "TreadMarks' write notices"). At every mark of the engine's
// observer it snapshots each reachable clock it has not seen before — by
// backing array — and checks that every processor's current clock still
// holds its snapshot; at the end of the run every snapshot is checked,
// from the observer's last mark, which the run reaches only as it stops:
// interval clocks live in the run's region, which nothing may read once
// the harness has released it. The marks are closer together than one
// message's software overhead, so a clock that lives across a round trip
// (a lock request's, a barrier arrival's) is seen before anyone could
// write it. After every barrier it records each processor's clock array:
// the release hands all of them one clock.
type frozen struct {
	*tm.TM
	nprocs  int
	ivals   []int        // per processor, intervals already snapshotted
	index   map[*int]int // backing array -> its snapshot in snaps
	snaps   []snapshot
	changed []string // current clocks found written at a mark, and snapshots at the end
	ended   bool     // every snapshot was checked as the run stopped
	after   [][]*int // after[p][k]: processor p's clock array after its k-th barrier
	samples int
}

type snapshot struct{ live, was []int }

func (f *frozen) Attach(e *sim.Engine, s *mem.Space, ctxs []*proto.Ctx) {
	f.TM.Attach(e, s, ctxs)
	f.nprocs = len(ctxs)
	f.ivals = make([]int, f.nprocs)
	f.after = make([][]*int, f.nprocs)
	f.index = map[*int]int{}
	last := sim.Time(0)
	e.Observe(watchMarks, func(mark int) {
		// Nothing changed since the last sample unless an event ran, which
		// moves the clock; the marks past the end of the run land here.
		if f.samples == 0 || e.Now() != last {
			last = e.Now()
			f.samples++
			for p := range f.nprocs {
				vc := f.Clock(p)
				if i, ok := f.index[&vc[0]]; ok && !slices.Equal(vc, f.snaps[i].was) {
					f.changed = append(f.changed, fmt.Sprintf("cycle %d: processor %d's clock changed from %v to %v",
						e.Now(), p, f.snaps[i].was, vc))
				}
				f.ivals[p] = f.Clocks(p, f.ivals[p], f.snap)
			}
		}
		if mark == len(watchMarks)-1 {
			f.changed = append(f.changed, f.written()...)
			f.ended = true
		}
	})
}

// written reports every snapshot whose clock changed. It reads the clocks,
// so it runs while they are the run's: as the run stops, or after a panic,
// whose region the harness never releases.
func (f *frozen) written() (bad []string) {
	for _, s := range f.snaps {
		if !slices.Equal(s.live, s.was) {
			bad = append(bad, fmt.Sprintf("a published clock changed from %v to %v", s.was, s.live))
		}
	}
	return bad
}

func (f *frozen) snap(vc []int) {
	if _, ok := f.index[&vc[0]]; !ok {
		f.index[&vc[0]] = len(f.snaps)
		f.snaps = append(f.snaps, snapshot{live: vc, was: slices.Clone(vc)})
	}
}

func (f *frozen) Barrier(c *proto.Ctx) {
	f.TM.Barrier(c)
	f.after[c.ID] = append(f.after[c.ID], &f.Clock(c.ID)[0])
}

// check returns what went wrong: a published clock that changed, or a
// barrier after which the processors' clocks are not one array.
func (f *frozen) check() []string {
	bad := f.changed
	if !f.ended {
		bad = append(bad, f.written()...)
	}
	for k := range f.after[0] {
		for p := 1; p < f.nprocs; p++ {
			if k >= len(f.after[p]) || f.after[p][k] != f.after[0][k] {
				bad = append(bad, fmt.Sprintf("after barrier %d processor %d does not share processor 0's clock", k, p))
				break
			}
		}
	}
	return bad
}

// watchMarks are the observer's marks: one per message overhead of the
// default machine, up to a horizon past the longest run watched here.
var watchMarks = func() []sim.Time {
	step := memsys.Default().MsgOverheadCycles
	var marks []sim.Time
	for at := step; at < 1<<27; at += step {
		marks = append(marks, at)
	}
	return marks
}()

// runFrozen runs one workload under TM and TM-LH with every published
// clock watched, and returns how many clocks were snapshotted and how many
// barriers were checked. A written clock is reported before what it breaks
// downstream: a failed verification, or the protocol's own panic.
func runFrozen(t *testing.T, w check.Workload, fcfg *fault.Config) (clocks, barriers int) {
	t.Helper()
	for _, mk := range []func() *tm.TM{tm.New, tm.NewLazyHybrid} {
		f := &frozen{TM: mk()}
		where := fmt.Sprintf("seed %d procs %d %s (faults %v)", w.Seed, w.Procs, f.Name(), fcfg)
		res := func() *harness.Result {
			defer func() {
				if r := recover(); r != nil {
					if bad := f.check(); len(bad) > 0 {
						t.Fatalf("%s: %d findings, first: %s; then the run panicked", where, len(bad), bad[0])
					}
					panic(r)
				}
			}()
			return harness.RunFaultTraced(w.Params(), f, apps.NewSynth(w.Cfg), nil, fcfg)
		}()
		if bad := f.check(); len(bad) > 0 {
			t.Fatalf("%s: %d findings, first: %s", where, len(bad), bad[0])
		}
		if err := res.Err(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if last := watchMarks[len(watchMarks)-1]; res.Cycles() >= last || f.samples == 0 {
			t.Fatalf("%s: %d cycles, %d samples: the marks end at cycle %d", where, res.Cycles(), f.samples, last)
		}
		clocks += len(f.snaps)
		barriers += len(f.after[0])
	}
	return clocks, barriers
}

// TestPublishedClocksNeverChange: a vector clock, once an interval, a
// message or another processor holds it, is never written — on the
// checker's workloads clean and under light faults, under a crash, and at
// 64 processors (combining barriers, sharded managers) — and after every
// barrier all processors hold the release's one clock.
func TestPublishedClocksNeverChange(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 8
	}
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := fault.ParseSpec("crash=1@60000:100000")
	if err != nil {
		t.Fatal(err)
	}
	clocks, barriers := 0, 0
	add := func(c, b int) { clocks, barriers = clocks+c, barriers+b }
	for seed := uint64(1); seed <= seeds; seed++ {
		w := check.Generate(seed, 0)
		add(runFrozen(t, w, nil))
		fc := light
		fc.Seed = 1000 + seed
		add(runFrozen(t, w, &fc))
	}
	add(runFrozen(t, check.Generate(3, 4), &crash))
	add(runFrozen(t, check.Generate(14, 64), nil)) // four phases, about 29 M cycles
	if clocks == 0 || barriers == 0 {
		t.Fatalf("%d clocks snapshotted, %d barriers checked: the check is vacuous", clocks, barriers)
	}
	t.Logf("%d published clocks snapshotted, %d barriers checked", clocks, barriers)
}
