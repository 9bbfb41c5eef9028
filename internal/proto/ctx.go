package proto

import (
	"encoding/binary"
	"math"

	"aecdsm/internal/mem"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Ctx is the DSM context a simulated processor programs against: typed
// shared-memory accessors, Compute for local work, and the synchronization
// operations. One Ctx exists per processor per run.
//
// Every shared access goes through the software MMU check (valid bit and
// write epoch) and the node's TLB/cache/memory-bus cost models; protocol
// action happens only on the slow path, exactly like a page fault would.
type Ctx struct {
	P  *sim.Proc
	E  *sim.Engine
	M  *mem.ProcMem
	S  *mem.Space
	Pr Protocol

	// ID and N identify this processor within the SPMD program.
	ID int
	N  int

	// Epoch is the write-permission epoch: a write to a page whose
	// frame.WriteEpoch differs traps to the protocol (twin creation).
	// Protocols bump it at synchronization points. Starts at 1 so that
	// initially-valid pages trap on first write.
	Epoch uint64

	// The landing zone of Call (call.go): the reply, whether it is in,
	// the handler that lands it and the predicate Call waits on.
	reply   any
	replied bool
	land    sim.Handler
	landed  func() bool

	scratch [8]byte

	// bulkBuf is the reusable conversion buffer for the bulk accessors
	// (Read/WriteF64s, Read/WriteI32s). Safe to reuse because a Ctx is
	// owned by one processor coroutine and the buffer is only live
	// between the (possibly blocking) access check and the plain memory
	// copy that follows — never across a yield.
	bulkBuf []byte
}

// bulk returns the conversion buffer grown to n bytes.
func (c *Ctx) bulk(n int) []byte {
	if cap(c.bulkBuf) < n {
		c.bulkBuf = make([]byte, n)
	}
	return c.bulkBuf[:n]
}

// NewCtx builds the context for one processor.
func NewCtx(p *sim.Proc, e *sim.Engine, m *mem.ProcMem, s *mem.Space, pr Protocol, id, n int) *Ctx {
	c := &Ctx{P: p, E: e, M: m, S: s, Pr: pr, ID: id, N: n, Epoch: 1}
	c.land = c.landReply
	c.landed = func() bool { return c.replied }
	return c
}

// Compute charges local computation (instructions, private data) at one
// cycle each, the paper's assumption for non-shared work.
func (c *Ctx) Compute(cycles uint64) { c.P.Advance(cycles, stats.Busy) }

// access runs the software MMU and cost model for the byte range
// [a, a+n), faulting to the protocol where needed.
func (c *Ctx) access(a mem.Addr, n int, write bool) {
	pp := &c.E.Params
	end := a + n
	for off := a; off < end; {
		pg := c.S.PageOf(off)
		f := c.M.Peek(pg)
		if !f.Valid || (write && f.WriteEpoch != c.Epoch) {
			c.fault(pg, write)
		}
		// TLB lookup for this page.
		if c.P.TLB.Access(pg) {
			c.P.Advance(pp.TLBFillCycles, stats.Others)
		}
		pageEnd := c.S.PageBase(pg) + c.S.PageSize()
		if pageEnd > end {
			pageEnd = end
		}
		span := pageEnd - off
		// Cache access; misses occupy the memory bus.
		if misses := c.P.Cache.Access(off, span); misses > 0 {
			words := pp.Words(misses * pp.CacheLineBytes)
			cost := c.P.MemBus.Cost(c.P.Clock, words)
			c.P.Advance(cost, stats.Others)
		}
		// One cycle per word touched: the loads/stores themselves.
		c.P.Advance(uint64(pp.Words(span)), stats.Busy)
		off = pageEnd
	}
}

// fault invokes the protocol slow path, measuring the stall as access
// fault overhead (the quantity of Figure 3).
func (c *Ctx) fault(pg int, write bool) {
	if write {
		c.P.Stats.WriteFaults++
	} else {
		c.P.Stats.ReadFaults++
	}
	if !c.M.Peek(pg).EverValid {
		c.P.Stats.ColdFaults++
	}
	c.E.Tracer.Page(c.P.Clock, c.ID, trace.KindPageFault, pg, trace.Flag(write), 0)
	start := c.P.Clock
	// Fault trap: interrupt-class overhead, charged like other
	// interrupts to the "others" category.
	c.P.Advance(c.E.Params.InterruptCycles, stats.Others)
	c.Pr.Fault(c, pg, write)
	c.P.Stats.FaultCycles += c.P.Clock - start
}

// ReadBytes copies shared memory into dst.
func (c *Ctx) ReadBytes(a mem.Addr, dst []byte) {
	c.access(a, len(dst), false)
	c.M.Read(a, dst)
}

// WriteBytes copies src into shared memory.
func (c *Ctx) WriteBytes(a mem.Addr, src []byte) {
	c.access(a, len(src), true)
	c.M.Write(a, src)
}

// ReadI32 reads a 32-bit integer.
func (c *Ctx) ReadI32(a mem.Addr) int32 {
	c.access(a, 4, false)
	c.M.Read(a, c.scratch[:4])
	return int32(binary.LittleEndian.Uint32(c.scratch[:4]))
}

// WriteI32 writes a 32-bit integer.
func (c *Ctx) WriteI32(a mem.Addr, v int32) {
	c.access(a, 4, true)
	binary.LittleEndian.PutUint32(c.scratch[:4], uint32(v))
	c.M.Write(a, c.scratch[:4])
}

// ReadI64 reads a 64-bit integer.
func (c *Ctx) ReadI64(a mem.Addr) int64 {
	c.access(a, 8, false)
	c.M.Read(a, c.scratch[:8])
	return int64(binary.LittleEndian.Uint64(c.scratch[:8]))
}

// WriteI64 writes a 64-bit integer.
func (c *Ctx) WriteI64(a mem.Addr, v int64) {
	c.access(a, 8, true)
	binary.LittleEndian.PutUint64(c.scratch[:8], uint64(v))
	c.M.Write(a, c.scratch[:8])
}

// ReadF64 reads a float64.
func (c *Ctx) ReadF64(a mem.Addr) float64 {
	return math.Float64frombits(uint64(c.ReadI64(a)))
}

// WriteF64 writes a float64.
func (c *Ctx) WriteF64(a mem.Addr, v float64) {
	c.WriteI64(a, int64(math.Float64bits(v)))
}

// AddF64 adds v to the float64 at a (read-modify-write).
func (c *Ctx) AddF64(a mem.Addr, v float64) {
	c.WriteF64(a, c.ReadF64(a)+v)
}

// ReadF64s bulk-reads len(dst) float64s starting at a.
func (c *Ctx) ReadF64s(a mem.Addr, dst []float64) {
	n := len(dst) * 8
	c.access(a, n, false)
	buf := c.bulk(n)
	c.M.Read(a, buf)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}

// WriteF64s bulk-writes src starting at a.
func (c *Ctx) WriteF64s(a mem.Addr, src []float64) {
	n := len(src) * 8
	c.access(a, n, true)
	buf := c.bulk(n)
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	c.M.Write(a, buf)
}

// ReadI32s bulk-reads len(dst) int32s starting at a.
func (c *Ctx) ReadI32s(a mem.Addr, dst []int32) {
	n := len(dst) * 4
	c.access(a, n, false)
	buf := c.bulk(n)
	c.M.Read(a, buf)
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
}

// WriteI32s bulk-writes src starting at a.
func (c *Ctx) WriteI32s(a mem.Addr, src []int32) {
	n := len(src) * 4
	c.access(a, n, true)
	buf := c.bulk(n)
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	c.M.Write(a, buf)
}

// Acquire enters the critical section guarded by the lock.
func (c *Ctx) Acquire(lock int) {
	c.P.Stats.LockAcquires++
	c.Pr.Acquire(c, lock)
}

// Release leaves the critical section guarded by the lock.
func (c *Ctx) Release(lock int) {
	c.P.Stats.LockReleases++
	c.Pr.Release(c, lock)
}

// Barrier joins the global barrier.
func (c *Ctx) Barrier() {
	c.P.Stats.BarrierArrivals++
	c.Pr.Barrier(c)
}

// Notice sends a LAP acquire notice: a hint that this processor intends to
// acquire the lock in the near future (the paper's virtual queue entries,
// which a compiler would insert).
func (c *Ctx) Notice(lock int) {
	c.P.Stats.AcquireNotices++
	c.Pr.Notice(c, lock)
}
