package proto

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// Ideal is a zero-overhead sequentially-consistent shared memory: all
// processors share one physical memory image, locks hand over in zero
// cycles, and barriers cost only the load-imbalance wait. It is the
// "perfect DSM" lower bound used to validate applications independently of
// any coherence protocol, and as an ablation baseline in benchmarks.
//
// Use it with a single shared ProcMem for all contexts (harness handles
// this automatically).
type Ideal struct {
	ctxs  []*Ctx
	locks []idealLock

	barWaiters []*Ctx
	barMax     sim.Time
}

type idealLock struct {
	held   bool
	holder int
	queue  []*Ctx
}

// NewIdeal builds the ideal protocol with at least numLocks locks; the
// harness tells it the program's count through SetNumLocks.
func NewIdeal(numLocks int) *Ideal {
	return &Ideal{locks: make([]idealLock, numLocks)}
}

// SetNumLocks implements NumLocksProvider: the lock table grows to the
// program's lock count. It must precede the first Acquire.
func (pr *Ideal) SetNumLocks(n int) {
	if n > len(pr.locks) {
		pr.locks = make([]idealLock, n)
	}
}

// Name implements Protocol.
func (pr *Ideal) Name() string { return "ideal" }

// SharesMemory marks that all contexts must view one ProcMem.
func (pr *Ideal) SharesMemory() bool { return true }

// Attach implements Protocol.
func (pr *Ideal) Attach(e *sim.Engine, s *mem.Space, ctxs []*Ctx) {
	pr.ctxs = ctxs
}

// Fault implements Protocol: everything is always resident; just mark the
// frame usable and move on.
func (pr *Ideal) Fault(c *Ctx, page int, write bool) {
	f := c.M.Frame(page)
	f.Valid = true
	f.EverValid = true
	if write {
		f.WriteEpoch = c.Epoch
	}
}

// Acquire implements Protocol with a zero-cost FIFO lock.
func (pr *Ideal) Acquire(c *Ctx, lock int) {
	l := &pr.locks[lock]
	if !l.held {
		l.held = true
		l.holder = c.ID
		return
	}
	l.queue = append(l.queue, c)
	c.P.WaitUntil(func() bool { return l.held && l.holder == c.ID }, stats.Synch)
}

// Release implements Protocol.
func (pr *Ideal) Release(c *Ctx, lock int) {
	l := &pr.locks[lock]
	if len(l.queue) == 0 {
		l.held = false
		l.holder = -1
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	l.holder = next.ID
	next.P.Wake(c.P.Clock)
}

// Barrier implements Protocol: pure load-imbalance wait.
func (pr *Ideal) Barrier(c *Ctx) {
	if c.P.Clock > pr.barMax {
		pr.barMax = c.P.Clock
	}
	pr.barWaiters = append(pr.barWaiters, c)
	if len(pr.barWaiters) == len(pr.ctxs) {
		at := pr.barMax
		waiters := pr.barWaiters
		pr.barWaiters = nil
		pr.barMax = 0
		released := false
		for _, w := range waiters {
			if w != c {
				w.P.Wake(at)
			} else {
				released = true
			}
		}
		_ = released
		return
	}
	me := c
	c.P.WaitUntil(func() bool {
		for _, w := range pr.barWaiters {
			if w == me {
				return false
			}
		}
		return true
	}, stats.Synch)
}

// Notice implements Protocol (no-op).
func (pr *Ideal) Notice(c *Ctx, lock int) {}

// Done implements Protocol (no-op).
func (pr *Ideal) Done(c *Ctx) {}
