package aec_test

import (
	"errors"
	"fmt"
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// chainProg exercises the merged-diff chain: each processor in turn
// appends to a different page under the same lock; the last one checks it
// sees every predecessor's write (cumulative chain), then everyone
// verifies after a barrier.
type chainProg struct {
	rounds int
	base   mem.Addr
	n      int
	err    error
}

func (a *chainProg) Name() string  { return "chain" }
func (a *chainProg) NumLocks() int { return 1 }
func (a *chainProg) Err() error    { return a.err }
func (a *chainProg) Init(s *mem.Space, nprocs int) {
	a.n = nprocs
	// One page per processor so the chain spans many pages.
	a.base = s.Alloc("chain", nprocs*4096, 0)
}

func (a *chainProg) Body(c *proto.Ctx) {
	c.Barrier()
	for r := 0; r < a.rounds; r++ {
		// Processors acquire in a staggered order; the spacing is wide
		// enough to dominate barrier-departure jitter so the arrival
		// order at the lock manager is the rank order.
		c.Compute(uint64(150000 * ((c.ID + r) % a.n)))
		c.Acquire(0)
		// Check every predecessor's page from this round is visible.
		for q := 0; q < a.n; q++ {
			got := c.ReadI64(a.base + mem.Addr(q*4096))
			want := int64(r)
			if prioritized((q+r)%a.n, (c.ID+r)%a.n) {
				want = int64(r + 1)
			}
			if got != want && a.err == nil {
				a.err = errf("round %d: proc %d sees page %d = %d, want %d",
					r, c.ID, q, got, want)
			}
		}
		c.WriteI64(a.base+mem.Addr(c.ID*4096), int64(r+1))
		c.Release(0)
		c.Barrier()
	}
}

// prioritized reports whether rank a goes before rank b in the staggered
// acquire order (lower compute delay acquires first).
func prioritized(a, b int) bool { return a < b }

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func TestChainCumulative(t *testing.T) {
	for _, lap := range []bool{true, false} {
		prog := &chainProg{rounds: 4}
		res := harness.Run(memsys.Default(), aec.New(aec.Options{UseLAP: lap, Ns: 2}), prog)
		if err := res.Err(); err != nil {
			t.Fatalf("lap=%v: %v", lap, err)
		}
	}
}

func TestNoLAPNeverPushes(t *testing.T) {
	res := harness.Run(memsys.Default(), aec.New(aec.Options{UseLAP: false, Ns: 2}),
		apps.NewCounter(4, 64, 8))
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n := res.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed }); n != 0 {
		t.Fatalf("AEC-noLAP pushed %d updates", n)
	}
}

func TestLAPPushesAndHelps(t *testing.T) {
	lapRes := harness.Run(memsys.Default(), aec.New(aec.DefaultOptions()), apps.NewCounter(6, 64, 8))
	noRes := harness.Run(memsys.Default(), aec.New(aec.Options{UseLAP: false, Ns: 2}), apps.NewCounter(6, 64, 8))
	if err := errors.Join(lapRes.Err(), noRes.Err()); err != nil {
		t.Fatal(err)
	}
	pushes := lapRes.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed })
	if pushes == 0 {
		t.Fatal("LAP never pushed updates")
	}
	if lapRes.Run.FaultCycles() >= noRes.Run.FaultCycles() {
		t.Fatalf("LAP fault overhead (%d) not below noLAP (%d)",
			lapRes.Run.FaultCycles(), noRes.Run.FaultCycles())
	}
}

func TestLAPStatsExposed(t *testing.T) {
	pr := aec.New(aec.DefaultOptions())
	res := harness.Run(memsys.Default(), pr, apps.NewCounter(6, 32, 4))
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if pr.NumLocks() < 1 {
		t.Fatal("no locks")
	}
	s := pr.LockLAP(0)
	if s.Acquires == 0 {
		t.Fatal("no acquires recorded on lock 0")
	}
	if s.RateFull() < 0 {
		t.Fatal("lock 0 never evaluated despite contention")
	}
}

func TestUpdateSetSizeBounded(t *testing.T) {
	for ns := 1; ns <= 3; ns++ {
		pr := aec.New(aec.Options{UseLAP: true, Ns: ns})
		if pr.Options().Ns != ns {
			t.Fatalf("options not preserved")
		}
		res := harness.Run(memsys.Default(), pr, apps.NewCounter(4, 32, 4))
		if err := res.Err(); err != nil {
			t.Fatalf("ns=%d: %v", ns, err)
		}
	}
}

func TestProtocolNames(t *testing.T) {
	if aec.New(aec.DefaultOptions()).Name() != "AEC" {
		t.Fatal("name")
	}
	if aec.New(aec.Options{UseLAP: false}).Name() != "AEC-noLAP" {
		t.Fatal("noLAP name")
	}
}

// readerWriterProg: one writer updates a page outside critical sections
// every step; a rotating subset of readers consults it. Exercises write
// notices, home reassignment and the "did not access on previous step"
// home-fetch rule.
type readerWriterProg struct {
	steps int
	base  mem.Addr
	n     int
	err   error
}

func (a *readerWriterProg) Name() string  { return "readerwriter" }
func (a *readerWriterProg) NumLocks() int { return 1 }
func (a *readerWriterProg) Err() error    { return a.err }
func (a *readerWriterProg) Init(s *mem.Space, nprocs int) {
	a.n = nprocs
	a.base = s.Alloc("rw", 4096, 0)
}

func (a *readerWriterProg) Body(c *proto.Ctx) {
	c.Barrier()
	for step := 0; step < a.steps; step++ {
		if c.ID == 0 {
			c.WriteI64(a.base, int64(step+1))
		}
		c.Barrier()
		// Readers with gaps: proc q reads only every q-th step, so most
		// faults happen on pages not accessed in the previous step.
		if c.ID > 0 && step%(c.ID+1) == 0 {
			if got := c.ReadI64(a.base); got != int64(step+1) && a.err == nil {
				a.err = errf("step %d: proc %d read %d", step, c.ID, got)
			}
		}
		c.Barrier()
	}
}

func TestWriteNoticesWithGaps(t *testing.T) {
	for _, lap := range []bool{true, false} {
		prog := &readerWriterProg{steps: 12}
		res := harness.Run(memsys.Default(), aec.New(aec.Options{UseLAP: lap, Ns: 2}), prog)
		if err := res.Err(); err != nil {
			t.Fatalf("lap=%v: %v", lap, err)
		}
	}
}

// hotReaderProg: one writer, one steady reader that touches the page every
// step — the reader keeps recency, so its faults take the pure
// write-notice path (fetch the writer's outside diffs, no home fetch).
// The writer's diffs are created lazily on the reader's first request,
// covering the on-demand service path too.
type hotReaderProg struct {
	steps int
	base  mem.Addr
	err   error
}

func (a *hotReaderProg) Name() string  { return "hotreader" }
func (a *hotReaderProg) NumLocks() int { return 1 }
func (a *hotReaderProg) Err() error    { return a.err }
func (a *hotReaderProg) Init(s *mem.Space, nprocs int) {
	a.base = s.Alloc("hot", 4096, 0)
}

func (a *hotReaderProg) Body(c *proto.Ctx) {
	c.Barrier()
	for step := 0; step < a.steps; step++ {
		if c.ID == 0 {
			c.WriteI64(a.base, int64(step+1))
		}
		if c.ID == 1 {
			// Touch a disjoint word so the page stays recently
			// accessed (word-level race-free page sharing).
			c.ReadI64(a.base + 512)
		}
		c.Barrier()
		if c.ID == 1 {
			if got := c.ReadI64(a.base); got != int64(step+1) && a.err == nil {
				a.err = errf("step %d: reader saw %d", step, got)
			}
		}
		c.Barrier()
	}
}

func TestWriteNoticePathSteadyReader(t *testing.T) {
	for _, lap := range []bool{true, false} {
		prog := &hotReaderProg{steps: 10}
		pr := aec.New(aec.Options{UseLAP: lap, Ns: 2})
		res := harness.Run(memsys.Default(), pr, prog)
		if err := res.Err(); err != nil {
			t.Fatalf("lap=%v: %v", lap, err)
		}
		// The reader must have issued write-notice diff fetches.
		if n := res.Run.Sum(func(p *stats.Proc) uint64 { return p.DiffRequests }); n == 0 {
			t.Error("no diff requests issued; WN path not exercised")
		}
		if n := res.Run.Sum(func(p *stats.Proc) uint64 { return p.WriteNoticesReceived }); n == 0 {
			t.Error("no write notices received")
		}
	}
}

// TestBarrier64Procs is the regression test for the former
// "aec: barrier copysets support at most 32 processors" panic: barrier
// copysets are growable bitsets now, so the same barrier-heavy chain
// program runs unchanged on a 64-node (8x8) mesh. The second subtest
// turns on the full scaling architecture (radix-16 barrier combining,
// hash-sharded homes and lock managers; docs/SCALING.md) and demands
// the same program-level result.
func TestBarrier64Procs(t *testing.T) {
	flat := memsys.Default().ForProcs(64)
	scaled := flat
	scaled.BarrierRadix = 16
	scaled.ShardHomes = true
	scaled.ShardManagers = true
	for _, tc := range []struct {
		name string
		p    memsys.Params
	}{{"flat", flat}, {"scaled", scaled}} {
		t.Run(tc.name, func(t *testing.T) {
			res := harness.Run(tc.p, aec.New(aec.DefaultOptions()), apps.NewCounter(3, 64, 8))
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// orphanProg is the shape behind the crash sweep's access-history rule: p2
// reads a page outside any lock, p1 then writes another word of it inside
// a critical section, and after the barrier p2 reads that word under the
// lock. The barrier pushes p1's diff to every valid-copy holder, so p2
// only sees the write if its copy is valid at the barrier — or if it knows
// afterwards that its copy is not to be trusted.
type orphanProg struct {
	base mem.Addr
	err  error
}

func (a *orphanProg) Name() string                  { return "orphan" }
func (a *orphanProg) NumLocks() int                 { return 1 }
func (a *orphanProg) Err() error                    { return a.err }
func (a *orphanProg) Init(s *mem.Space, nprocs int) { a.base = s.Alloc("y", 4096, 0) }

func (a *orphanProg) Body(c *proto.Ctx) {
	c.Barrier()
	switch c.ID {
	case 1:
		c.Compute(100_000)
		c.Acquire(0)
		c.WriteI64(a.base, 42)
		c.Release(0)
	case 2:
		c.ReadI64(a.base + 64)
		c.Compute(2_000_000) // the crash lands here
	}
	c.Barrier()
	if c.ID == 2 {
		c.Acquire(0)
		if got := c.ReadI64(a.base); got != 42 {
			a.err = errf("p2 reads %d after the barrier, want p1's 42", got)
		}
		c.Release(0)
	}
	c.Barrier()
}

// TestOrphanedCopyRefetchedAfterBarrier crashes p2 between its read and
// the barrier. The sweep invalidates its clean copy, so the barrier's diff
// for the page is dropped there; p2 accessed the page in the previous
// step, which without the sweep erasing that history would let it
// revalidate the stale frame instead of asking the home for a base copy.
func TestOrphanedCopyRefetchedAfterBarrier(t *testing.T) {
	p := memsys.Default().ForProcs(3)
	fc := &fault.Config{Crashes: []fault.Crash{{Node: 2, At: 500_000, Down: 100_000}}}
	prog := &orphanProg{}
	res := harness.RunFaultTraced(p, aec.New(aec.Options{UseLAP: false}), prog, nil, fc)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n := res.Run.Procs[2].OrphanInvalidations; n == 0 {
		t.Fatal("the crash orphaned no page: the scenario is not exercised")
	}
}
