package proto

import (
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/stats"
)

// countingProto records protocol entry points; memory behaves ideally.
type countingProto struct {
	Ideal
	faults   int
	writes   int
	acquires int
}

func (c *countingProto) Fault(ctx *Ctx, page int, write bool) {
	c.faults++
	if write {
		c.writes++
	}
	c.Ideal.Fault(ctx, page, write)
}

func (c *countingProto) Acquire(ctx *Ctx, lock int) {
	c.acquires++
	c.Ideal.Acquire(ctx, lock)
}

// runScript runs do on each of nprocs processors sharing four pages homed
// at processor 0, under pr, which shares one memory among them.
func runScript(t *testing.T, pr Protocol, nprocs int, do func(c *Ctx)) *stats.Run {
	t.Helper()
	m := Assemble(memsys.Default().ForProcs(nprocs), pr, Script{Homes: make([]int, 4), Do: do}, nil, nil, nil)
	if m.Run() {
		t.Fatal("deadlocked")
	}
	return m.E.Run
}

func TestCtxTypedAccessors(t *testing.T) {
	pr := &countingProto{Ideal: *NewIdeal(1)}
	runScript(t, pr, 1, func(c *Ctx) {
		c.WriteI32(0, -7)
		if got := c.ReadI32(0); got != -7 {
			t.Errorf("ReadI32 = %d", got)
		}
		c.WriteI64(8, 1<<40)
		if got := c.ReadI64(8); got != 1<<40 {
			t.Errorf("ReadI64 = %d", got)
		}
		c.WriteF64(16, 3.25)
		if got := c.ReadF64(16); got != 3.25 {
			t.Errorf("ReadF64 = %v", got)
		}
		c.AddF64(16, 1.0)
		if got := c.ReadF64(16); got != 4.25 {
			t.Errorf("AddF64 = %v", got)
		}
		src := []float64{1, 2, 3}
		c.WriteF64s(32, src)
		dst := make([]float64, 3)
		c.ReadF64s(32, dst)
		for i := range src {
			if dst[i] != src[i] {
				t.Errorf("bulk f64 mismatch at %d", i)
			}
		}
		is := []int32{4, 5, 6}
		c.WriteI32s(64, is)
		id := make([]int32, 3)
		c.ReadI32s(64, id)
		if id[2] != 6 {
			t.Error("bulk i32 mismatch")
		}
		b := []byte{9, 8, 7}
		c.WriteBytes(100, b)
		rb := make([]byte, 3)
		c.ReadBytes(100, rb)
		if rb[0] != 9 {
			t.Error("bytes mismatch")
		}
	})
}

func TestFastPathAvoidsFaults(t *testing.T) {
	pr := &countingProto{Ideal: *NewIdeal(1)}
	runScript(t, pr, 1, func(c *Ctx) {
		c.ReadI32(0) // page 0 is home-valid: read should not fault
		before := pr.faults
		for i := 0; i < 10; i++ {
			c.ReadI32(mem.Addr(4 * i))
		}
		if pr.faults != before {
			t.Errorf("valid-page reads faulted %d times", pr.faults-before)
		}
		// First write in the epoch traps exactly once per page.
		before = pr.faults
		c.WriteI32(0, 1)
		c.WriteI32(4, 2)
		if pr.faults != before+1 {
			t.Errorf("write faults = %d, want 1", pr.faults-before)
		}
	})
}

func TestAccessSpansPages(t *testing.T) {
	pr := &countingProto{Ideal: *NewIdeal(1)}
	ps := memsys.Default().PageSize
	runScript(t, pr, 1, func(c *Ctx) {
		buf := make([]byte, 64)
		c.WriteBytes(ps-32, buf) // spans pages 0 and 1
		if pr.writes < 2 {
			t.Errorf("spanning write faulted %d pages, want 2", pr.writes)
		}
	})
}

func TestComputeChargesBusy(t *testing.T) {
	pr := NewIdeal(1)
	run := runScript(t, pr, 1, func(c *Ctx) { c.Compute(12345) })
	if run.Procs[0].Breakdown[stats.Busy] != 12345 {
		t.Fatalf("busy = %d", run.Procs[0].Breakdown[stats.Busy])
	}
}

func TestIdealLockFIFO(t *testing.T) {
	pr := NewIdeal(1)
	var order []int
	runScript(t, pr, 4, func(c *Ctx) {
		c.Compute(uint64(1000 * (c.ID + 1))) // staggered arrival
		c.Acquire(0)
		order = append(order, c.ID)
		c.Compute(5000) // hold the lock so others queue
		c.Release(0)
	})
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("lock order = %v, want FIFO by arrival", order)
		}
	}
}

func TestIdealBarrierJoinsAll(t *testing.T) {
	pr := NewIdeal(1)
	var after []uint64
	runScript(t, pr, 3, func(c *Ctx) {
		c.Compute(uint64(100 * (c.ID + 1)))
		c.Barrier()
		after = append(after, c.P.Clock)
	})
	for _, clk := range after {
		if clk != 300 {
			t.Fatalf("barrier departures = %v, want all at 300", after)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	pr := NewIdeal(2)
	run := runScript(t, pr, 2, func(c *Ctx) {
		if c.ID == 0 {
			c.Acquire(0)
			c.Release(0)
			c.Notice(1)
		}
		c.Barrier()
	})
	if run.Procs[0].LockAcquires != 1 || run.Procs[0].LockReleases != 1 {
		t.Fatal("lock counters")
	}
	if run.Procs[0].AcquireNotices != 1 {
		t.Fatal("notice counter")
	}
	if run.BarrierEvents() != 1 {
		t.Fatal("barrier counter")
	}
}

// TestIdealSetNumLocks: NewIdeal's count is a floor, the program's count
// (NumLocksProvider) raises the table to what it will index.
func TestIdealSetNumLocks(t *testing.T) {
	var _ NumLocksProvider = (*Ideal)(nil)
	pr := NewIdeal(2)
	pr.SetNumLocks(1)
	if len(pr.locks) != 2 {
		t.Fatalf("%d locks after SetNumLocks(1) on NewIdeal(2), want 2", len(pr.locks))
	}
	pr.SetNumLocks(5000)
	runScript(t, pr, 1, func(c *Ctx) {
		c.Acquire(4999)
		c.Release(4999)
	})
}
