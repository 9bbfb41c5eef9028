package aec

import (
	"fmt"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
)

// Scripted machines for the paths of AEC that the applications do not take
// and that only AEC's own state shows: three processors, a page or two,
// lock 0, and a proto.Script whose body tells the processors apart.
// Compute gaps of 10^5 cycles and more order the processors' steps; every
// run is deterministic, so each case also checks a counter or a piece of
// protocol state that shows its path ran. What these programs read is
// checked under every protocol kind by internal/check's script table.

// assemble builds s under pr on three processors, under the fault
// schedule fc (nil for none).
func assemble(pr *AEC, s proto.Script, fc *fault.Config) *proto.Machine {
	return proto.Assemble(memsys.Default().ForProcs(3), pr, s, nil, fc, nil)
}

// run runs m to the end.
func run(t *testing.T, m *proto.Machine) {
	t.Helper()
	if m.Run() {
		t.Fatal("deadlocked")
	}
}

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
			var requests uint64
			m := assemble(New(opt), proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
				x := c.S.PageBase(0)
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
					requests = c.P.Stats.DiffRequests
					read(t, c, x, 42, "after the critical section")
				}
				c.Barrier()
				read(t, c, x, 42, "after the barrier")
			}}, nil)
			run(t, m)
			if all := m.Ctxs[2].P.Stats.DiffRequests; requests != 1 || all != 2 {
				t.Errorf("p2 sent %d diff requests at its release and %d in all, want the release's top-up and the outside fault's: 1 and 2",
					requests, all)
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
			pr := New(opt)
			var created uint64
			run(t, assemble(pr, proto.Script{Homes: []int{1}, Locks: 1, Do: func(c *proto.Ctx) {
				x := c.S.PageBase(0)
				if c.ID == 1 {
					c.WriteI64(x, 7)
					c.Acquire(0)
					before := c.P.Stats.DiffsCreated
					c.WriteI64(x+64, 9)
					created = c.P.Stats.DiffsCreated - before
					c.Release(0)
					var runs []int
					if d := chainDiff(pr.ps[1].lock(0).myMerged, 0); d != nil {
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
			}}, nil))
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
		opt.lazyBarrierDiffs = true
		t.Run(New(opt).Name(), func(t *testing.T) {
			var created, fetches uint64
			run(t, assemble(New(opt), proto.Script{Homes: []int{0}, Do: func(c *proto.Ctx) {
				x := c.S.PageBase(0)
				switch c.ID {
				case 1:
					c.WriteI64(x, 11)
				case 2:
					c.WriteI64(x+64, 22)
				}
				c.Barrier()
				c.Barrier()
				if c.ID == 2 {
					created, fetches = c.P.Stats.DiffsCreated, c.P.Stats.PageFetches
					read(t, c, x, 11, "written by p1")
					read(t, c, x+64, 22, "written by itself two steps before")
					created, fetches = c.P.Stats.DiffsCreated-created, c.P.Stats.PageFetches-fetches
				}
				c.Barrier()
			}}, nil))
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
	pr := New(DefaultOptions())
	m := assemble(pr, proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
		x := c.S.PageBase(0)
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
	}}, nil)
	// Attach has bound the handlers: wrap the push handler before the run.
	p2 := m.Ctxs[2].P.Stats
	var pushes []pushMsg
	var useless []uint64 // counted by p2 for each late push
	push := pr.h.push
	late := func(s *sim.Svc, msg *sim.Msg) {
		before := p2.UselessUpdates
		push(s, msg)
		useless = append(useless, p2.UselessUpdates-before)
	}
	pr.h.push = func(s *sim.Svc, msg *sim.Msg) {
		push(s, msg)
		if msg.To != 2 {
			return
		}
		pushes = append(pushes, msg.Payload.(pushMsg))
		if n := len(pushes); n > 1 {
			s.Send(2, kPush, 8, pushes[n-2], late)
		}
	}
	run(t, m)
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
			want := int64(1)
			if tc.holder {
				want = 2
			}
			m := assemble(New(DefaultOptions()), proto.Script{Homes: []int{0, 0}, Locks: 1, Do: func(c *proto.Ctx) {
				x, y := c.S.PageBase(0), c.S.PageBase(1)
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
			}}, fc)
			run(t, m)
			if n := m.Ctxs[2].P.Stats.OrphanInvalidations; n != 1 {
				t.Errorf("the crash orphaned %d of p2's pages, want y alone", n)
			}
		})
	}
}

// TestRigBarrierCopysetRule: every processor reads three pages, then p2
// alone writes page 0 outside any critical section, p1 and p2 write page
// 1 outside, and p1 writes page 2 under lock 0. The barrier leaves page 0
// valid at p2 alone and page 1 at p1 and p2, each homed at its lowest
// writer; page 2, touched only through the lock chain, keeps all three
// holders and moves home to the chain's owner.
func TestRigBarrierCopysetRule(t *testing.T) {
	for _, opt := range bothKinds {
		t.Run(New(opt).Name(), func(t *testing.T) {
			pr := New(opt)
			run(t, assemble(pr, proto.Script{Homes: []int{0, 0, 0}, Locks: 1, Do: func(c *proto.Ctx) {
				p0, p1, p2 := c.S.PageBase(0), c.S.PageBase(1), c.S.PageBase(2)
				for _, a := range []mem.Addr{p0, p1, p2} {
					c.ReadI64(a)
				}
				c.Compute(100_000)
				switch c.ID {
				case 1:
					c.WriteI64(p1, 11)
					c.Acquire(0)
					c.WriteI64(p2, 12)
					c.Release(0)
				case 2:
					c.WriteI64(p0, 20)
					c.WriteI64(p1+64, 21)
				}
				c.Barrier()
				if c.ID != 0 {
					return
				}
				for pg, want := range []struct {
					holders string
					home    int
				}{{"[2]", 2}, {"[1 2]", 1}, {"[0 1 2]", 1}} {
					if got := fmt.Sprint(pr.bar.copyset[pg].AppendBits(nil)); got != want.holders {
						t.Errorf("page %d is valid at %s after the barrier, want %s", pg, got, want.holders)
					}
					for q, st := range pr.ps {
						if st.pages[pg].home != want.home {
							t.Errorf("p%d homes page %d at %d, want %d", q, pg, st.pages[pg].home, want.home)
						}
					}
				}
				read(t, c, p0, 20, "written by p2")
				read(t, c, p1, 11, "written by p1")
				read(t, c, p1+64, 21, "written by p2")
				read(t, c, p2, 12, "written under the lock")
			}}, nil))
		})
	}
}
