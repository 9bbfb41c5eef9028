// Package proto defines the interface between applications and SW-DSM
// protocols: the DSM context (the API application code programs against)
// and the Protocol interface that AEC, AEC-noLAP and TreadMarks implement.
package proto

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/sim"
)

// Protocol is a software DSM coherence protocol. All methods run on the
// calling processor's goroutine (except message handlers, which the
// protocol registers itself); they charge their own simulated costs.
type Protocol interface {
	// Name identifies the protocol in reports ("AEC", "AEC-noLAP", "TM").
	Name() string
	// Attach wires the protocol to the engine and the per-processor
	// contexts. Called once before the simulation starts.
	Attach(e *sim.Engine, s *mem.Space, ctxs []*Ctx)
	// Fault services an access fault: page invalid, or first write of an
	// epoch. On return the page must be readable (and writable when
	// write is set) by the faulting processor.
	Fault(c *Ctx, page int, write bool)
	// Acquire obtains the lock, entering a critical section.
	Acquire(c *Ctx, lock int)
	// Release leaves the critical section of the lock.
	Release(c *Ctx, lock int)
	// Barrier performs a global barrier across all processors.
	Barrier(c *Ctx)
	// Notice hints that the caller intends to acquire the lock soon
	// (the LAP virtual-queue acquire notice). May be a no-op.
	Notice(c *Ctx, lock int)
}

// NumLocksProvider is implemented by protocols that need the lock count up
// front (for manager state sizing).
type NumLocksProvider interface {
	SetNumLocks(n int)
}
