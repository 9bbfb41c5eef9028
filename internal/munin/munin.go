// Package munin implements a Munin-style write-shared protocol (Carter,
// Bennett, Zwaenepoel): eager release consistency with an update-based,
// multiple-writer coherence scheme. At every release the modifications
// made since the last release are diffed and *pushed to every processor
// sharing the modified pages*, and the release blocks until the updates
// have been applied everywhere — the communication profile the AEC paper
// contrasts itself against in §1/§6.
//
// The package also implements the paper's suggestion that "in
// release-consistent systems such as Munin, LAP can be used to restrict
// the update traffic": with Options.UseLAP, releases of lock-protected
// data update only the LAP update set and *invalidate* the remaining
// sharers, turning the protocol into a prediction-driven update/invalidate
// hybrid.
//
// With tracing enabled (see aecdsm/internal/trace and
// docs/OBSERVABILITY.md) every release's eager update fan-out appears as
// update-push events, which is the easiest way to see the §1 contrast
// between Munin's all-sharers traffic and the LAP-restricted variant.
package munin

import (
	"aecdsm/internal/bitset"
	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Message kinds of the messages Munin sends itself; the shared services
// send theirs. sim.Msg.Kind is written but never read (ROADMAP item
// 10(e)).
const (
	kUpdate    = iota // releaser -> page home: diff + distribution policy
	kFwdUpdate        // home -> sharer: diff to apply
	kFwdInval         // home -> sharer outside the update set: invalidate
	kHomeAck          // home -> releaser: forward fan-out size
	kMemberAck        // sharer -> releaser: update applied
)

// Options configures the protocol.
type Options struct {
	// UseLAP restricts release-time updates to the LAP update set,
	// invalidating the remaining sharers (the AEC paper's §1 proposal).
	UseLAP bool
	// Ns is the LAP update set size (default 2).
	Ns int
}

// Munin is the protocol instance.
type Munin struct {
	opt Options

	// LockMgr is the shared lock-manager service: eager RC moved all
	// coherence work to the release, so a grant carries only the update
	// set (under LAP).
	proto.LockMgr
	// PageHome serves base page copies; Munin's delta is the copyset add.
	proto.PageHome

	e    *sim.Engine
	s    *mem.Space
	ctxs []*proto.Ctx
	ps   []*procState

	pages []pageState // per-page home-side state (lives at InitHome)
	relay proto.Relay // the barrier (Sync)

	// h is the message handlers, bound once in Attach: a method value or
	// closure written at a send site is a fresh allocation per message.
	h struct {
		update, fwdUpdate, fwdInval, homeAck, memberAck sim.Handler
	}

	nprocs   int
	pageSize int
}

type procState struct {
	id int
	// dirty is the pages written since the last flush. Each was twinned
	// by its write fault and keeps the twin until flush drops it.
	dirty bitset.Set
	// fetching is the page whose base fetch is in flight, -1 if none: the
	// fetch is synchronous, so there is at most one. stale marks a fetch
	// crossed by an invalidation or update (the reply data serialized
	// before that event at the home, so it must be refetched).
	fetching int
	stale    bool

	inCS    int
	curLock int

	curLockUS []int // update set granted with the currently held lock
	homeAcks  int   // flush acks from homes
	memWanted int   // member acks expected (learned from home acks)
	memAcks   int

	// flushPages is the reusable sorted dirty-page scratch of flush.
	// Per-processor, not per-protocol: a flush blocks on acks, and other
	// processors flush while it waits.
	flushPages []int
	// flushDiffs are the diffs of the flush in progress, recycled once its
	// acks are in.
	flushDiffs []*mem.Diff
}

type pageState struct {
	copyset bitset.Set // sharer set, maintained at the page's home
}

type updateMsg struct {
	page     int
	diff     *mem.Diff
	releaser int
	us       []int // update targets when LAP restricts; nil = everyone
	restrict bool
}

type fwdMsg struct {
	page     int
	diff     *mem.Diff
	releaser int
}

// New builds a Munin-style protocol instance.
func New(opt Options) *Munin {
	if opt.Ns <= 0 {
		opt.Ns = 2
	}
	return &Munin{opt: opt}
}

// Name implements proto.Protocol.
func (pr *Munin) Name() string {
	if pr.opt.UseLAP {
		return "Munin+LAP"
	}
	return "Munin"
}

// Attach implements proto.Protocol.
func (pr *Munin) Attach(e *sim.Engine, s *mem.Space, ctxs []*proto.Ctx) {
	pr.e = e
	pr.s = s
	pr.ctxs = ctxs
	pr.nprocs = len(ctxs)
	pr.relay.InitRelay(e, ctxs)
	pr.pageSize = s.PageSize()
	pr.h.update, pr.h.fwdUpdate, pr.h.fwdInval = pr.handleUpdate, pr.handleFwdUpdate, pr.handleFwdInval
	pr.h.homeAck, pr.h.memberAck = pr.handleHomeAck, pr.handleMemberAck
	pr.ps = make([]*procState, pr.nprocs)
	for i := range pr.ps {
		pr.ps[i] = &procState{id: i, dirty: bitset.New(s.Pages()), fetching: -1, curLock: -1}
	}
	pr.InitLocks(e, ctxs, pr.opt.Ns, pr)
	pr.InitPageHome(ctxs, pr.pageDelta)
	pr.pages = make([]pageState, s.Pages())
	for pg := range pr.pages {
		pr.pages[pg].copyset = bitset.With(pr.nprocs, s.InitHome(pg))
	}
}

func (pr *Munin) homeOf(page int) int { return pr.s.InitHome(page) }

// Notice implements proto.Protocol: feeds the LAP virtual queue when LAP
// is enabled.
func (pr *Munin) Notice(c *proto.Ctx, lock int) {
	if pr.opt.UseLAP {
		pr.LockNotice(c, lock)
	}
}

// Fault implements proto.Protocol: fetch the page from its home (which is
// kept current by the eager updates), and twin on writes. If the local
// copy carries uncommitted modifications (this is a multiple-writer
// protocol: an invalidation can land on a page another lock's critical
// section is still writing), they are preserved across the refetch and
// reapplied over the fresh base.
func (pr *Munin) Fault(c *proto.Ctx, page int, write bool) {
	st := pr.ps[c.ID]
	f := c.M.Frame(page)
	if !f.Valid {
		pp := &pr.e.Params
		var local *mem.Diff
		if st.dirty.Has(page) {
			local = c.M.MakeTransientDiff(page, f.Twin, pp.WordBytes)
			cost := pp.DiffCycles(pr.pageSize)
			c.P.Stats.DiffCreateCycles += cost
			c.P.Advance(cost, stats.Data)
		}
		home := pr.homeOf(page)
		if home != c.ID {
			// Refetch until no invalidation or update crossed the
			// fetch: a reply whose data was serialized at the home
			// before a coherence event we observed is stale.
			for {
				st.fetching, st.stale = page, false
				pr.FetchPage(c, page, home)
				st.fetching = -1
				if !st.stale {
					break
				}
			}
		}
		if local != nil {
			// Re-twin against the fresh base, then replay the
			// uncommitted local modifications so the eventual flush
			// diff still contains exactly our own writes.
			c.M.MakeTwin(page)
			cost := pp.DiffCycles(local.DataBytes())
			c.P.Advance(cost, stats.Data)
			c.PatchDiff(local)
			c.M.RecycleDiff(local)
		}
		f.Valid = true
		f.EverValid = true
	}
	if write {
		c.ChargeTwin(stats.Data)
		if f.Twin == nil {
			c.M.MakeTwin(page)
		}
		st.dirty = st.dirty.Add(page)
		f.WriteEpoch = c.Epoch
	}
}

// pageDelta implements proto.PageDelta: nothing travels with a base copy
// (the eager updates keep the home current), but the home records the new
// sharer.
func (pr *Munin) pageDelta(home, page, from int) (any, int) {
	pr.pages[page].copyset = pr.pages[page].copyset.Add(from)
	return nil, 0
}

// Acquire implements proto.Protocol: plain queued lock transfer — eager RC
// moved all coherence work to the release.
func (pr *Munin) Acquire(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	pr.Request(c, lock, 8)
	st.curLockUS = c.Await(stats.Synch, nil).([]int)
	st.inCS++
	st.curLock = lock
	c.Epoch++
}

// Grant implements proto.LockCoherence: under LAP the grant carries the
// update set the grantee's release-time flush is restricted to: the set
// is the grant's payload, so a grant without LAP boxes nothing.
func (pr *Munin) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	var us []int
	if pr.opt.UseLAP {
		// Granted computed the set a moment ago; the charge still models
		// the manager computing it.
		us = pr.Lock(lock).Pred.Predicted()
		s.ChargeList(len(us) + 1)
	}
	pr.CommitGrant(s, lock, to, fromQueue, 0, us)
	pr.SendGrant(s, to, lock, 16+8*len(us), us, s.P.ID, len(us))
}

// Release implements proto.Protocol: flush all modifications eagerly to
// every sharer (or, under LAP, to the update set with invalidations for
// the rest), wait until they are applied, then hand the lock back.
func (pr *Munin) Release(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRelease, lock, 0, 0)
	pr.flush(c, st, st.curLockUS, pr.opt.UseLAP)
	st.inCS--
	st.curLock = -1
	c.Epoch++
	// The flush made every sharer current: no chain state stays behind.
	pr.Relinquish(c, lock)
}

// flush diffs every dirty page and distributes the updates through the
// page homes; blocks until every recipient has applied them (release
// consistency requires the updates to be performed before the release
// completes).
func (pr *Munin) flush(c *proto.Ctx, st *procState, us []int, restrict bool) {
	if st.dirty.None() {
		return
	}
	pages := st.dirty.AppendBits(st.flushPages[:0])
	st.flushPages = pages[:0]
	clear(st.dirty)

	st.homeAcks = 0
	st.memWanted = 0
	st.memAcks = 0
	sent := 0
	pp := &pr.e.Params
	for _, pg := range pages {
		d := c.M.MakeTransientDiff(pg, c.M.Frame(pg).Twin, pp.WordBytes)
		cost := pp.DiffCycles(pr.pageSize)
		cost += c.P.MemBus.Cost(c.P.Clock, pp.Words(pr.pageSize))
		c.P.Stats.DiffCreateCycles += cost
		c.P.Advance(cost, stats.Synch)
		c.M.DropTwin(pg)
		if d == nil {
			continue
		}
		c.P.Stats.DiffsCreated++
		c.P.Stats.DiffBytesCreated += uint64(d.EncodedBytes())
		pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffCreate, pg, d.ID, int64(d.EncodedBytes()), 0)
		sent++
		st.flushDiffs = append(st.flushDiffs, d)
		c.P.Stats.UpdatesPushed++
		c.P.Stats.UpdateBytesPushed += uint64(d.EncodedBytes())
		pr.e.Tracer.Page(c.P.Clock, c.ID, trace.KindUpdatePush, pg, int64(pr.homeOf(pg)), int64(d.EncodedBytes()))
		pr.e.SendFrom(c.P, stats.Synch, pr.homeOf(pg), kUpdate, d.EncodedBytes(),
			updateMsg{page: pg, diff: d, releaser: c.ID, us: us, restrict: restrict},
			pr.h.update)
	}
	if sent == 0 {
		return
	}
	want := sent
	c.P.WaitUntil(func() bool {
		return st.homeAcks >= want && st.memAcks >= st.memWanted
	}, stats.Synch)
	// Every reader of the flush's diffs has run: the home's handleUpdate
	// before its home ack, each sharer's handleFwdUpdate before its member
	// ack, and a retransmitted or duplicated copy is dropped by the
	// transport's dedup before any handler reads its payload.
	for _, d := range st.flushDiffs {
		c.M.RecycleDiff(d)
	}
	st.flushDiffs = st.flushDiffs[:0]
}

// handleUpdate runs at a page's home: apply the diff, forward it to the
// sharers (or invalidate those outside the update set), and tell the
// releaser how many member acks to expect.
func (pr *Munin) handleUpdate(s *sim.Svc, m *sim.Msg) {
	u := m.Payload.(updateMsg)
	ctx := pr.ctxs[m.To]

	// Apply locally (the home always stays current).
	if m.To != u.releaser {
		ctx.ServeDiff(s, u.diff, false)
	}

	inUS := func(q int) bool {
		if !u.restrict {
			return true
		}
		for _, x := range u.us {
			if x == q {
				return true
			}
		}
		return false
	}

	// One boxed payload serves every target, boxed at the first: a payload
	// is read-only once sent, and the invalidation handler ignores the diff.
	var fwd any
	forwards := 0
	cs := pr.pages[u.page].copyset
	for q := 0; q < pr.nprocs; q++ {
		if !cs.Has(q) || q == u.releaser || q == m.To {
			continue
		}
		if fwd == nil {
			fwd = fwdMsg{page: u.page, diff: u.diff, releaser: u.releaser}
		}
		if inUS(q) {
			forwards++
			ctx.P.Stats.UpdatesPushed++
			ctx.P.Stats.UpdateBytesPushed += uint64(u.diff.EncodedBytes())
			s.Send(q, kFwdUpdate, u.diff.EncodedBytes(), fwd, pr.h.fwdUpdate)
		} else {
			// LAP-restricted: invalidate instead of updating. The
			// invalidation is acknowledged like an update — release
			// consistency requires it to be performed before the
			// release completes, or the next acquirer could read the
			// stale copy.
			forwards++
			pr.pages[u.page].copyset.Remove(q)
			s.Send(q, kFwdInval, 8, fwd, pr.h.fwdInval)
		}
	}
	s.ChargeList(pr.nprocs)
	// Tell the releaser how many member acks this page contributes.
	s.Send(u.releaser, kHomeAck, 8, forwards, pr.h.homeAck)
}

// handleHomeAck lands a home's flush ack at the releaser, with the number
// of member acks the page contributes.
func (pr *Munin) handleHomeAck(s *sim.Svc, m *sim.Msg) {
	st := pr.ps[m.To]
	st.homeAcks++
	st.memWanted += m.Payload.(int)
	s.Wake(s.P)
}

// handleMemberAck lands a sharer's ack of a forwarded update or
// invalidation at the releaser.
func (pr *Munin) handleMemberAck(s *sim.Svc, m *sim.Msg) {
	pr.ps[m.To].memAcks++
	s.Wake(s.P)
}

// handleFwdUpdate applies a forwarded update at a sharer and acks the
// releaser.
func (pr *Munin) handleFwdUpdate(s *sim.Svc, m *sim.Msg) {
	u := m.Payload.(fwdMsg)
	ctx := pr.ctxs[m.To]
	f := ctx.M.Frame(u.page)
	if st := pr.ps[m.To]; !f.Valid && st.fetching == u.page {
		st.stale = true
	}
	if f.Valid {
		ctx.ServeDiff(s, u.diff, false)
	}
	s.Send(u.releaser, kMemberAck, 8, nil, pr.h.memberAck)
}

// handleFwdInval invalidates a sharer outside the update set and acks the
// releaser.
func (pr *Munin) handleFwdInval(s *sim.Svc, m *sim.Msg) {
	u := m.Payload.(fwdMsg)
	ctx := pr.ctxs[m.To]
	f := ctx.M.Peek(u.page)
	if st := pr.ps[m.To]; !f.Valid && st.fetching == u.page {
		st.stale = true
	}
	if f.Valid {
		ctx.M.Invalidate(u.page)
		ctx.P.Stats.Invalidations++
	}
	// A bare ack: the home charged the forward, and the releaser pays the wait.
	s.Send(u.releaser, kMemberAck, 8, nil, pr.h.memberAck)
}

// Barrier implements proto.Protocol: flush everything (to all sharers —
// barriers have no predicted acquirer), then a plain counting barrier.
func (pr *Munin) Barrier(c *proto.Ctx) {
	pr.flush(c, pr.ps[c.ID], nil, false)
	pr.e.Tracer.Event(c.P.Clock, c.ID, trace.KindBarrierArrive, 0, 0)
	pr.relay.Sync(c)
	pr.e.Tracer.Event(c.P.Clock, c.ID, trace.KindBarrierDepart, 0, 0)
	c.Epoch++
}
