package proto

import (
	"fmt"

	"aecdsm/internal/mem"
)

// Program is an SPMD application runnable on the simulated DSM. Init runs
// once before the simulation to lay out and fill shared memory; Body runs
// on every simulated processor (the context carries the processor id);
// Err reports the verification outcome recorded by Body (applications
// check their own results, usually on processor 0 after a final barrier).
type Program interface {
	// Name identifies the application ("IS", "FFT", ...).
	Name() string
	// NumLocks returns the number of lock variables the program uses.
	NumLocks() int
	// Init allocates and initializes shared memory.
	Init(s *mem.Space, nprocs int)
	// Body is the per-processor SPMD body.
	Body(c *Ctx)
	// Err returns the verification error recorded during the run, nil
	// if the computed results were correct.
	Err() error
}

// SplitChecker is implemented by programs whose problem decomposition has
// a minimum problem size per processor. CheckSplit reports — before any
// memory is allocated — whether the program can feed nprocs processors at
// its configured problem size; the error explains the size constraint.
// The harness consults it up front so an infeasible (app, scale, procs)
// combination fails with a clear diagnostic (or is skipped in sweeps)
// instead of misbehaving mid-run.
type SplitChecker interface {
	CheckSplit(nprocs int) error
}

// Script is a Program written inline, the shape of a test case: one page
// per entry of Homes — page i at address i × the page size, homed at
// processor Homes[i] — Locks lock variables, and Do run on every
// processor, which tells them apart by c.ID. A script verifies nothing
// itself (Err is nil): Do checks what it reads.
type Script struct {
	Homes []int
	Locks int
	Do    func(c *Ctx)
}

// Name implements Program.
func (Script) Name() string { return "script" }

// NumLocks implements Program.
func (s Script) NumLocks() int { return s.Locks }

// Init implements Program: one page-aligned page per home.
func (s Script) Init(sp *mem.Space, nprocs int) {
	for pg, home := range s.Homes {
		sp.Alloc(fmt.Sprint("page", pg), sp.PageSize(), home)
	}
}

// Body implements Program.
func (s Script) Body(c *Ctx) { s.Do(c) }

// Err implements Program.
func (Script) Err() error { return nil }
