package check

import (
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
)

// scriptCase is a program of two to four processors, a page or two and a
// lock, written as a proto.Script body that tells the processors apart.
// Every case is race-free: each read it checks is ordered after the write
// it expects by a lock hand-off or a barrier, so every protocol must
// return that value however the schedule and the network fall. Compute
// gaps of 10^5 cycles and more steer the schedule toward the path a case is
// about; they never decide what a checked read returns.
type scriptCase struct {
	name  string
	procs int
	homes []int // page i at address i × the page size, homed at homes[i]
	locks int
	body  func(t *testing.T, c *proto.Ctx)
}

// want checks the value c reads at a.
func want(t *testing.T, c *proto.Ctx, a mem.Addr, v int64, what string) {
	t.Helper()
	if got := c.ReadI64(a); got != v {
		t.Errorf("processor %d reads %d %s, want %d", c.ID, got, what, v)
	}
}

// outsideInside is the body of the two outside-then-inside cases.
func outsideInside(t *testing.T, c *proto.Ctx, again bool) {
	x := c.S.PageBase(0)
	switch c.ID {
	case 1:
		c.Compute(100_000)
		c.WriteI64(x, 7)
		c.Acquire(0)
		c.WriteI64(x+64, 9)
		c.Release(0)
		if again {
			c.WriteI64(x+128, 5)
		}
	case 2:
		want(t, c, x+192, 0, "from a word nobody writes")
	}
	c.Barrier()
	want(t, c, x, 7, "written outside the critical section")
	want(t, c, x+64, 9, "written inside it")
	if again {
		want(t, c, x+128, 5, "written outside after it")
	}
}

var scriptCases = []scriptCase{
	{
		// §3.4's careful write fault: processor 1 writes a word of page 0
		// outside any critical section, then another word of it inside
		// one, in the same barrier step. The fault inside the critical
		// section diffs and archives the outside modification first, and
		// the barrier must still report the page as written outside, or
		// the home (processor 0) and processor 2, which hold copies, keep
		// the old outside word. TreadMarks lost the word too: the write
		// fault inside the critical section took a second twin over it.
		name: "outside then inside write in one step", procs: 3, homes: []int{0}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) { outsideInside(t, c, false) },
	},
	{
		// The same, with a third word written outside after the critical
		// section: the page is twinned again in the step, its second
		// outside diff is archived over the first, and a write-notice
		// request must diff the live twin although the step already has
		// an archived part.
		name: "outside, inside, outside write in one step", procs: 3, homes: []int{0}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) { outsideInside(t, c, true) },
	},
	{
		// SNIPPETS.md's two-flag program with each store-then-load inside
		// the one critical section: whoever enters second sees the
		// other's store, so the two cannot both read 0. Each records what
		// it read on page 0, outside the critical section, for the other
		// to check after the barrier.
		name: "two flags under one lock", procs: 2, homes: []int{0, 1}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) {
			mine, other := c.S.PageBase(c.ID), c.S.PageBase(1-c.ID)
			seen := c.S.PageBase(0) + 64
			c.Acquire(0)
			c.WriteI64(mine, 1)
			saw := c.ReadI64(other)
			c.Release(0)
			c.WriteI64(seen+8*c.ID, saw+1)
			c.Barrier()
			want(t, c, other, 1, "the other's flag after the barrier")
			if c.ReadI64(seen)+c.ReadI64(seen+8) == 2 {
				t.Errorf("processor %d: both processors read the other's flag as 0 under the lock", c.ID)
			}
		},
	},
	{
		// A lock chain: four processors take lock 0 in turn, each adding
		// its bit to a counter on page 0 and a word of its own to page 1,
		// and reading every predecessor's word under the lock; after the
		// barrier everyone reads it all. The order of the chain is the
		// lock's, so each checks exactly the predecessors the counter
		// names.
		name: "lock chain hand-off", procs: 4, homes: []int{0, 3}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) {
			count, words := c.S.PageBase(0), c.S.PageBase(1)
			c.Notice(0)
			c.Compute(uint64(c.ID) * 200_000)
			c.Acquire(0)
			before := c.ReadI64(count)
			c.WriteI64(count, before|1<<c.ID)
			c.WriteI64(words+8*c.ID, int64(c.ID+1))
			for q := range c.N {
				if before&(1<<q) != 0 {
					want(t, c, words+8*q, int64(q+1), "a predecessor's word under the lock")
				}
			}
			c.Release(0)
			c.Barrier()
			want(t, c, count, 1<<c.N-1, "the counter after the barrier")
			for q := range c.N {
				want(t, c, words+8*q, int64(q+1), "a chain word after the barrier")
			}
		},
	},
	{
		// A page written under lock 0 and read after the reader's own
		// critical section, which never touched it: the reader holds a
		// copy from before, takes the lock until it sees the writer's flag
		// on page 1, and reads page 0 only after releasing.
		name: "lock-protected page read after the release", procs: 3, homes: []int{0, 0}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) {
			x, flag := c.S.PageBase(0), c.S.PageBase(1)
			switch c.ID {
			case 1:
				want(t, c, x+128, 0, "from a word nobody writes")
				c.Compute(200_000)
				c.Acquire(0)
				c.WriteI64(x, 42)
				c.WriteI64(flag, 1)
				c.Release(0)
			case 2:
				want(t, c, x+128, 0, "from a word nobody writes")
				c.Compute(1_000_000)
				for {
					c.Acquire(0)
					done := c.ReadI64(flag) == 1
					c.Release(0)
					if done {
						break
					}
					c.Compute(100_000)
				}
				want(t, c, x, 42, "after its critical section")
			}
			c.Barrier()
			want(t, c, x, 42, "after the barrier")
		},
	},
	{
		// Multiple writers of one page across barriers: every processor
		// writes its own word of page 0 outside any critical section,
		// everyone reads every word after the barrier, and the second step
		// does it again over the first step's values.
		name: "false sharing across two barriers", procs: 4, homes: []int{2},
		body: func(t *testing.T, c *proto.Ctx) {
			x := c.S.PageBase(0)
			for step := int64(1); step <= 2; step++ {
				c.WriteI64(x+8*c.ID, 10*step+int64(c.ID))
				c.Barrier()
				for q := range c.N {
					want(t, c, x+8*q, 10*step+int64(q), "a word written before the barrier")
				}
				c.Barrier()
			}
		},
	},
	{
		// Processors 1 and 2 write words of page 0 outside critical
		// sections; two barriers later processor 2 reads both, its own
		// from a step whose twin it may still hold.
		name: "own outside write read two barriers later", procs: 3, homes: []int{0},
		body: func(t *testing.T, c *proto.Ctx) {
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
				want(t, c, x, 11, "written by processor 1")
				want(t, c, x+64, 22, "written by itself two steps before")
			}
			c.Barrier()
		},
	},
	{
		// apps.Synth's layout: every processor writes a slot of its own on
		// page 0 outside any critical section — the even ones before
		// their critical section, the odd ones after it — and adds one to
		// a counter on page 1 inside lock 0's, all in one step. (With the
		// counter on the slots' page AEC loses counter increments: ROADMAP
		// item 1.)
		name: "slots outside, counter inside", procs: 4, homes: []int{1, 2}, locks: 1,
		body: func(t *testing.T, c *proto.Ctx) {
			slots, count := c.S.PageBase(0), c.S.PageBase(1)
			slot := func() { c.WriteI64(slots+8*c.ID, int64(c.ID+1)) }
			if c.ID%2 == 0 {
				slot()
			}
			c.Acquire(0)
			c.WriteI64(count, c.ReadI64(count)+1)
			c.Release(0)
			if c.ID%2 == 1 {
				slot()
			}
			c.Barrier()
			want(t, c, count, int64(c.N), "the counter after the barrier")
			for q := range c.N {
				want(t, c, slots+8*q, int64(q+1), "a slot after the barrier")
			}
		},
	},
}

// TestScriptsUnderEveryProtocol runs every script case under each of
// harness.Kinds(), clean and under the light fault schedule, with the
// invariant auditor attached. A case written against one protocol checks
// all seven, and ideal — one memory, no coherence — says what each read
// must return.
func TestScriptsUnderEveryProtocol(t *testing.T) {
	light := mustSpec(t, "light", 1)
	for _, sc := range scriptCases {
		for _, kind := range harness.Kinds() {
			for _, fc := range []*fault.Config{nil, light} {
				name := sc.name + "/" + string(kind)
				if fc != nil {
					name += "/light"
				}
				t.Run(name, func(t *testing.T) {
					s := proto.Script{Homes: sc.homes, Locks: sc.locks, Do: func(c *proto.Ctx) { sc.body(t, c) }}
					aud := NewAuditor(sc.procs)
					res := harness.RunFaultTraced(memsys.Default().ForProcs(sc.procs), harness.NewProtocol(kind, 2), s, aud, fc)
					if res.Deadlocked {
						t.Fatal("deadlocked")
					}
					for _, v := range aud.Violations() {
						t.Error(v)
					}
				})
			}
		}
	}
}
