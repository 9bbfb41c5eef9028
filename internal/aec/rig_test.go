package aec

import (
	"fmt"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// A scripted rig for the paths of AEC that the applications do not take: a
// few processors, a page or two, lock 0, and a body written per processor.
// Compute gaps of 10^5 cycles and more order the processors' steps; every
// run is deterministic, so each case also checks a counter that shows its
// path ran.

// rig is one machine: nprocs processors sharing pages, page i homed at the
// processor homes[i] names.
type rig struct {
	pr    *AEC
	e     *sim.Engine
	ctxs  []*proto.Ctx
	pages []mem.Addr
}

func newRig(t *testing.T, nprocs int, homes []int, opt Options, fc *fault.Config) *rig {
	t.Helper()
	p := memsys.Default().ForProcs(nprocs)
	e := sim.New(p, stats.NewRun("rig", "AEC", nprocs))
	if fc != nil {
		e.EnableFaults(*fc)
	}
	space := mem.NewSpace(p.PageSize)
	r := &rig{pr: New(opt), e: e, ctxs: make([]*proto.Ctx, nprocs)}
	for pg, home := range homes {
		r.pages = append(r.pages, space.Alloc(fmt.Sprint("page", pg), p.PageSize, home))
	}
	for i := range r.ctxs {
		r.ctxs[i] = proto.NewCtx(e.Procs[i], e, mem.NewProcMem(space, i), space, r.pr, i, nprocs)
	}
	r.pr.Attach(e, space, r.ctxs)
	return r
}

// run gives every processor body and runs the machine to the end.
func (r *rig) run(t *testing.T, body func(c *proto.Ctx)) {
	t.Helper()
	for i, c := range r.ctxs {
		r.e.Spawn(i, func(*sim.Proc) { body(c) })
	}
	r.e.Start()
	if r.e.Deadlocked {
		t.Fatal("rig deadlocked")
	}
}

// stats returns processor i's counters.
func (r *rig) stats(i int) *stats.Proc { return r.ctxs[i].P.Stats }

// read checks the value a processor reads at a.
func read(t *testing.T, c *proto.Ctx, a mem.Addr, want int64, what string) {
	t.Helper()
	if got := c.ReadI64(a); got != want {
		t.Errorf("processor %d reads %d %s, want %d", c.ID, got, what, want)
	}
}

var bothKinds = []Options{{UseLAP: true, Ns: 2}, {UseLAP: false, Ns: 2}}

// TestRigGrantInvalidationFaultedOutside: p2 holds a copy of the page
// when it acquires lock 0 after p1 wrote the page under it. p1 pushed
// nothing to p2 (no notice made p2 a predicted acquirer), so the grant
// invalidates p2's copy. p2 releases without touching the page, so the
// release fetches the chain page it never faulted on, and p2's read after
// the critical section fetches the diff again from the lock's last owner.
func TestRigGrantInvalidationFaultedOutside(t *testing.T) {
	for _, opt := range bothKinds {
		t.Run(New(opt).Name(), func(t *testing.T) {
			r := newRig(t, 3, []int{0}, opt, nil)
			x := r.pages[0]
			var requests uint64
			r.run(t, func(c *proto.Ctx) {
				switch c.ID {
				case 1:
					c.ReadI64(x)
					c.Compute(200_000)
					c.Acquire(0)
					c.WriteI64(x, 42)
					c.Release(0)
				case 2:
					c.ReadI64(x)
					c.Compute(1_000_000)
					c.Acquire(0)
					if c.M.Peek(0).Valid {
						t.Error("the grant left p2's copy of the chain page valid")
					}
					c.Release(0)
					requests = r.stats(2).DiffRequests
					read(t, c, x, 42, "after the critical section")
				}
				c.Barrier()
				read(t, c, x, 42, "after the barrier")
			})
			if requests != 1 || r.stats(2).DiffRequests != 2 {
				t.Errorf("p2 sent %d diff requests at its release and %d in all, want the release's top-up and the outside fault's: 1 and 2",
					requests, r.stats(2).DiffRequests)
			}
		})
	}
}

// TestRigInsideWriteOverOutsideTwin: p1 writes a word of its home page
// outside any critical section, then another word of it inside one. The
// write fault in the critical section first diffs the outside
// modification, so the release's merged diff holds the inside word only,
// and the others read both words from the home after the barrier.
func TestRigInsideWriteOverOutsideTwin(t *testing.T) {
	for _, opt := range bothKinds {
		t.Run(New(opt).Name(), func(t *testing.T) {
			r := newRig(t, 3, []int{1}, opt, nil)
			x := r.pages[0]
			var created uint64
			r.run(t, func(c *proto.Ctx) {
				if c.ID == 1 {
					c.WriteI64(x, 7)
					c.Acquire(0)
					before := r.stats(1).DiffsCreated
					c.WriteI64(x+64, 9)
					created = r.stats(1).DiffsCreated - before
					c.Release(0)
					var runs []int
					if d := r.pr.ps[1].lock(0).myMerged[0]; d != nil {
						for off := range d.Runs() {
							runs = append(runs, off)
						}
					}
					if fmt.Sprint(runs) != "[64]" {
						t.Errorf("the release's merged diff has runs at %v, want the inside word's [64]", runs)
					}
				}
				c.Barrier()
				read(t, c, x, 7, "written outside the critical section")
				read(t, c, x+64, 9, "written inside it")
			})
			if created != 1 {
				t.Errorf("the write inside the critical section created %d diffs, want the outside one", created)
			}
		})
	}
}

// TestRigFetchSavesOutsideModifications: p1 and p2 both write the page
// outside critical sections, so the barrier invalidates each one's copy
// with the other's write notice and makes p1 the home. Without eager
// barrier diffs p2's modification is still in its twin two steps later,
// when p2 reads the page again: the base fetch diffs it first, and the
// home's notice naming p2 replays it from p2's own archive.
func TestRigFetchSavesOutsideModifications(t *testing.T) {
	for _, opt := range bothKinds {
		opt.LazyBarrierDiffs = true
		t.Run(New(opt).Name(), func(t *testing.T) {
			r := newRig(t, 3, []int{0}, opt, nil)
			x := r.pages[0]
			var created, fetches uint64
			r.run(t, func(c *proto.Ctx) {
				switch c.ID {
				case 1:
					c.WriteI64(x, 11)
				case 2:
					c.WriteI64(x+64, 22)
				}
				c.Barrier()
				c.Barrier()
				if c.ID == 2 {
					created, fetches = r.stats(2).DiffsCreated, r.stats(2).PageFetches
					read(t, c, x, 11, "written by p1")
					read(t, c, x+64, 22, "written by itself two steps before")
					created, fetches = r.stats(2).DiffsCreated-created, r.stats(2).PageFetches-fetches
				}
				c.Barrier()
			})
			if created != 1 || fetches != 1 {
				t.Errorf("p2's read created %d diffs and fetched %d pages, want 1 and 1", created, fetches)
			}
		})
	}
}

// TestRigStalePushesDropped: p1 releases lock 0 once before a barrier
// and twice after it, each time with p2, which sent an acquire notice, in
// its update set. The network delivers each push to p2 again, late, right
// after the next one: the first, from the step before the barrier, is
// stale by step, and the second, behind the third, by acquire counter. p2
// counts each as a useless update and reads the third release's value
// under the lock.
func TestRigStalePushesDropped(t *testing.T) {
	r := newRig(t, 3, []int{0}, DefaultOptions(), nil)
	x := r.pages[0]
	var pushes []pushMsg
	var useless []uint64 // counted by p2 for each late push
	push := r.pr.h.push
	late := func(s *sim.Svc, m *sim.Msg) {
		before := r.stats(2).UselessUpdates
		push(s, m)
		useless = append(useless, r.stats(2).UselessUpdates-before)
	}
	r.pr.h.push = func(s *sim.Svc, m *sim.Msg) {
		push(s, m)
		if m.To != 2 {
			return
		}
		pushes = append(pushes, m.Payload.(pushMsg))
		if n := len(pushes); n > 1 {
			s.Send(2, kPush, 8, pushes[n-2], late)
		}
	}
	r.run(t, func(c *proto.Ctx) {
		switch c.ID {
		case 1:
			c.Compute(100_000)
			c.Acquire(0)
			c.WriteI64(x, 1)
			c.Release(0)
		case 2:
			c.Notice(0)
		}
		c.Barrier()
		switch c.ID {
		case 1:
			for v := int64(2); v <= 3; v++ {
				c.Acquire(0)
				c.WriteI64(x, v)
				c.Release(0)
			}
		case 2:
			c.Compute(2_000_000)
			c.Acquire(0)
			read(t, c, x, 3, "under the lock")
			c.Release(0)
		}
		c.Barrier()
	})
	if len(pushes) != 3 || fmt.Sprint(useless) != "[1 1]" {
		t.Errorf("p2 received %d pushes, want 3, and counted %v useless updates for the late ones, want [1 1]", len(pushes), useless)
	}
}

// TestRigCrashKeepsChainPages crashes p2 while it holds critical-section
// diffs of page x: once with a push buffer it has applied to x while
// waiting for a grant, once inside the critical section that inherited
// x's diff. Either way the sweep keeps x and orphans p2's clean copy of y,
// and p2 reads both correctly after it restarts.
func TestRigCrashKeepsChainPages(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashAt uint64
		holder  bool // p0 holds lock 0 across p2's acquire
	}{
		{"applied push buffer", 1_200_000, true},
		{"inherited chain", 1_000_000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := &fault.Config{Crashes: []fault.Crash{{Node: 2, At: tc.crashAt, Down: 100_000}}}
			r := newRig(t, 3, []int{0, 0}, DefaultOptions(), fc)
			x, y := r.pages[0], r.pages[1]
			want := int64(1)
			if tc.holder {
				want = 2
			}
			r.run(t, func(c *proto.Ctx) {
				switch c.ID {
				case 0:
					if tc.holder {
						c.Compute(300_000)
						c.Acquire(0)
						c.WriteI64(x, 2)
						c.Compute(2_000_000)
						c.Release(0)
					}
				case 1:
					c.Compute(100_000)
					c.Acquire(0)
					c.WriteI64(x, 1)
					c.Release(0)
				case 2:
					c.ReadI64(x)
					c.ReadI64(y)
					c.Notice(0)
					c.Compute(600_000)
					c.Acquire(0)
					c.Compute(1_000_000)
					read(t, c, x, want, "under the lock")
					read(t, c, y, 0, "after the crash")
					c.Release(0)
				}
				c.Barrier()
			})
			if n := r.stats(2).OrphanInvalidations; n != 1 {
				t.Errorf("the crash orphaned %d of p2's pages, want y alone", n)
			}
		})
	}
}
