// Package aec implements the Affinity Entry Consistency protocol — the
// primary contribution of the paper. AEC is an Entry Consistency-based,
// page-granularity, software-only DSM that:
//
//   - automatically associates the data modified inside a critical section
//     with the lock delimiting it (no explicit bindings);
//   - generates diffs eagerly and hides their creation/application behind
//     synchronization delays (manager processing, lock waits, barrier
//     waits);
//   - uses Lock Acquirer Prediction (LAP) to push merged diffs to the
//     predicted next acquirer of a lock at release time, before it asks;
//   - keeps barrier-protected (outside-of-CS) data coherent with
//     invalidations driven by write notices, with per-step home nodes.
//
// Setting Options.UseLAP to false yields the paper's "AEC without LAP"
// ablation (Figures 3 and 4): no update pushes, all CS diff transfers
// happen lazily at access faults.
package aec

import (
	"fmt"
	"slices"

	"aecdsm/internal/bitset"
	"aecdsm/internal/mem"
	"aecdsm/internal/pool"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Message kinds of the messages AEC sends itself; the shared services send
// theirs. sim.Msg.Kind is written but never read (ROADMAP item 10(e)).
const (
	kRel = iota
	kPush
	kBarInstr
	kBarDiff
	kBarWN
	kBarInstrBatch
)

// Options configures an AEC instance.
type Options struct {
	// UseLAP enables Lock Acquirer Prediction and eager update pushes.
	UseLAP bool
	// Ns is the update set size (the paper evaluates 1-3; 2 is best).
	Ns int

	// lazyBarrierDiffs (false in the paper's protocol) disables eager
	// outside-diff creation during the barrier wait, so an outside twin
	// outlives its barrier. It is the hook of
	// TestRigFetchSavesOutsideModifications, the one way to reach the base
	// fetch that archives a live outside twin first (fetchPage).
	lazyBarrierDiffs bool
}

// DefaultOptions returns the paper's configuration: LAP on, Ns=2.
func DefaultOptions() Options { return Options{UseLAP: true, Ns: 2} }

// AEC is the protocol instance shared by all processors of one run.
type AEC struct {
	opt Options

	// LockMgr is the shared lock-manager service; AEC supplies its
	// coherence delta (locks.go) and its crash scrub (recover.go).
	proto.LockMgr
	// PageHome serves base page copies; AEC's delta is pageDelta (fault.go).
	proto.PageHome

	e    *sim.Engine
	s    *mem.Space
	ctxs []*proto.Ctx
	ps   []*procState

	bar   barrierState
	relay proto.Relay // barrier fan-in/fan-out; arrive and ready (Sync) share it

	// h is the message handlers, bound once in Attach: a method value
	// written at a send site is a fresh closure per message.
	h struct {
		push, rel, diffReq, wnDiffReq sim.Handler
		barArrive, barDiff, barWN     sim.Handler
		barInstr, barInstrBatch       sim.Handler
	}

	nprocs   int
	pageSize int

	// merger is the per-instance scratch behind every diff merge; one
	// protocol serves one engine, so reuse is safe and keeps the merge
	// hot path free of page-sized allocations.
	merger *mem.Merger

	// wns pools the write-notice snapshot a page home ships with each
	// base copy. The snapshot rides exactly one page reply and the
	// requester copies its entries into pendingWN by value, so the
	// requester recycles the slice there. Entries are pointer-free.
	wns pool.Slices[mem.WriteNotice]
}

// New builds an AEC protocol with the given options.
func New(opt Options) *AEC {
	if opt.Ns <= 0 {
		opt.Ns = 2
	}
	return &AEC{opt: opt}
}

// Name implements proto.Protocol.
func (pr *AEC) Name() string {
	if !pr.opt.UseLAP {
		return "AEC-noLAP"
	}
	return "AEC"
}

// Options returns the configuration.
func (pr *AEC) Options() Options { return pr.opt }

// Attach implements proto.Protocol.
func (pr *AEC) Attach(e *sim.Engine, s *mem.Space, ctxs []*proto.Ctx) {
	pr.e = e
	pr.s = s
	pr.ctxs = ctxs
	pr.nprocs = len(ctxs)
	pr.relay.InitRelay(e, ctxs)
	pr.pageSize = s.PageSize()
	pr.merger = mem.NewMerger(pr.pageSize)
	pr.h.push, pr.h.rel = pr.handlePush, pr.handleRel
	pr.h.diffReq, pr.h.wnDiffReq = pr.handleDiffReq, pr.handleWNDiffReq
	pr.h.barArrive, pr.h.barDiff, pr.h.barWN = pr.handleBarArrive, pr.handleBarDiff, pr.handleBarWN
	pr.h.barInstr, pr.h.barInstrBatch = pr.handleBarInstr, pr.handleBarInstrBatch
	nsz := pr.opt.Ns
	if !pr.opt.UseLAP {
		nsz = 1 // predictor still sized, but never consulted for pushes
	}
	pr.InitLocks(e, ctxs, nsz, pr)
	pr.InitPageHome(ctxs, pr.pageDelta)
	// The lock records are sized by NumLocks, which InitLocks sets.
	pages := s.Pages()
	pr.ps = make([]*procState, pr.nprocs)
	for i := range pr.ps {
		pr.ps[i] = newProcState(i, pages, pr.NumLocks(), s)
	}
	pr.bar = barrierState{
		arrivals: make([]*arriveMsg, pr.nprocs),
		copyset:  make([]bitset.Set, pages),
		owner:    make([]ownedBy, pr.NumLocks()),
		touched:  bitset.New(pages),
		written:  bitset.New(pages),
		csOwner:  make([]int, pages),
		instrs:   make([]barInstr, pr.nprocs),
		batches:  make([]instrBatch, pr.nprocs),
	}
	for pg := range pr.bar.copyset {
		pr.bar.copyset[pg] = bitset.With(pr.nprocs, s.InitHome(pg))
	}
}

// Notice implements proto.Protocol: sends an acquire notice to the lock
// manager, feeding the LAP virtual queue.
func (pr *AEC) Notice(c *proto.Ctx, lock int) {
	if pr.opt.UseLAP {
		pr.LockNotice(c, lock)
	}
}

// archiveOutside stores a finalized outside diff for (page, step), merged
// over the one already archived for that step. An archived diff lives
// until the run ends, so both it and a same-step merge are carved from the
// run's region; the diff a merge replaces stays there, unread, until then.
func (st *procState) archiveOutside(pr *AEC, page, step int, d *mem.Diff) {
	if d == nil {
		return
	}
	p := &st.pages[page]
	i, ok := slices.BinarySearchFunc(p.archive, step, byStep)
	if ok {
		p.archive[i].d = pr.merger.MergeIn(pr.s.Region(), p.archive[i].d, d)
		return
	}
	p.archive = slices.Insert(p.archive, i, stepDiff{step: step, d: d})
}

// chargeDiffCreate charges the processor-side cost of creating a diff for
// one page (scan of the whole page plus memory traffic for the modified
// words) and records Table 4 statistics. hidden marks work overlapped with
// a synchronization stall. savedTwin marks a speculative outside diff
// (§3.2), which keeps the page's twin so it can be discarded at release;
// the trace event says so (Arg2 bit 1) so the invariant auditor's
// twin/diff lifecycle model stays exact.
func (pr *AEC) chargeDiffCreate(c *proto.Ctx, d *mem.Diff, cat stats.Category, hidden, savedTwin bool) {
	pp := &pr.e.Params
	cost := pp.DiffCycles(pr.pageSize)
	dataBytes := 0
	if d != nil {
		dataBytes = d.DataBytes()
	}
	cost += c.P.MemBus.Cost(c.P.Clock, pp.Words(pr.pageSize+dataBytes))
	c.P.Stats.DiffCreateCycles += cost
	if hidden {
		c.P.Stats.DiffCreateHidden += cost
	}
	if d != nil {
		c.P.Stats.DiffsCreated++
		c.P.Stats.DiffBytesCreated += uint64(d.EncodedBytes())
		pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffCreate, d.Page, d.ID,
			int64(d.EncodedBytes()), trace.Flag(hidden)|trace.Flag(savedTwin)<<1)
	}
	c.P.Advance(cost, cat)
}

// applyDiff charges this processor for applying a diff to a local page,
// counts and traces the application, and patches the frame. Every caller
// holds a diff: chains, pushes, fetch replies and write-notice replies
// carry no nil entry.
func (pr *AEC) applyDiff(c *proto.Ctx, d *mem.Diff, cat stats.Category, hidden bool) {
	pp := &pr.e.Params
	cost := pp.DiffCycles(d.DataBytes())
	cost += c.P.MemBus.Cost(c.P.Clock, pp.Words(d.DataBytes()))
	c.P.Stats.DiffApplyCycles += cost
	if hidden {
		c.P.Stats.DiffApplyHidden += cost
	}
	c.P.Stats.DiffsApplied++
	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, d.Page, d.ID, int64(d.DataBytes()), trace.Flag(hidden))
	c.P.Advance(cost, cat)
	c.PatchDiff(d)
}

// writeProtect forces the next write to this frame to trap.
func writeProtect(f *mem.Frame) { f.WriteEpoch = 0 }

func (pr *AEC) String() string {
	return fmt.Sprintf("%s(Ns=%d)", pr.Name(), pr.opt.Ns)
}
