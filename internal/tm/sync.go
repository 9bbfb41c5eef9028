package tm

import (
	"cmp"
	"fmt"
	"slices"

	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Acquire implements the lazy-release-consistency acquire: request the
// lock through its manager; the last releaser assembles the write notices
// for every interval the acquirer has not seen, which the acquirer applies
// (invalidations) before entering the critical section.
func (pr *TM) Acquire(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	st.grant = nil
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRequest, lock, int64(pr.MgrOf(lock)), 0)
	// Clocks travel by reference: st.vc is replaced, never written.
	pr.e.SendFrom(c.P, stats.Synch, pr.MgrOf(lock), kAcqReq, 8+4*pr.nprocs,
		acqReq{lock: lock, vc: st.vc, from: c.ID}, pr.h.acqReq)
	c.P.WaitUntil(func() bool { return st.grant != nil }, stats.Synch)
	g := st.grant
	st.grant = nil

	c.P.Advance(pr.e.Params.ListCycles(len(g.wns)), stats.Synch)
	if pr.hybrid && len(g.piggy) > 0 {
		pr.applyWNsHybrid(c, st, g.wns, g.piggy)
	} else {
		pr.applyWNs(c, st, g.wns)
	}
	// Only a grant's slice goes back: barrier notice sets are shared
	// across release messages and stay unpooled.
	pr.wns.Put(g.wns)
	st.vc = joinVC(st.vc, g.vc)
	c.Epoch++
}

// applyWNsHybrid consumes the grant's write notices, applying piggybacked
// diffs in place of invalidations where they fully cover a cached page's
// notices (the Lazy Hybrid fast path); everything else falls back to the
// usual invalidation.
func (pr *TM) applyWNsHybrid(c *proto.Ctx, st *tmProc, wns []wnRef, piggy []ivalDiff) {
	fresh := st.fresh[:0]
	for _, wn := range wns {
		if wn.proc != st.id && wn.seq > st.vc[wn.proc] {
			fresh = append(fresh, wn)
		}
	}
	// Pages ascending, each page's notices in grant order.
	slices.SortStableFunc(fresh, func(a, b wnRef) int { return cmp.Compare(a.page, b.page) })
	covering := func(wn wnRef) *ivalDiff {
		for i := range piggy {
			if p := &piggy[i]; p.proc == wn.proc && p.seq == wn.seq && p.d.Page == wn.page {
				return p
			}
		}
		return nil
	}
	pp := &pr.e.Params
	// Notices that fall back to invalidation are compacted to the front of
	// the scratch, behind the read cursor.
	fallback := 0
	for i, j := 0, 0; i < len(fresh); i = j {
		pg := fresh[i].page
		for j = i; j < len(fresh) && fresh[j].page == pg; j++ {
		}
		refs := fresh[i:j]
		// A page is hybrid-applicable if it is locally valid, has no pending
		// notices, and every fresh notice for it is covered by a piggyback.
		ok := c.M.Peek(pg).Valid && len(st.pages[pg].pending) == 0
		for k := 0; ok && k < len(refs); k++ {
			ok = covering(refs[k]) != nil
		}
		if !ok {
			fallback += copy(fresh[fallback:], refs)
			continue
		}
		// Materialize any undiffed local interval first, exactly as
		// the fault path does: foreign values landing in the page must
		// not leak into our own lazy diffs.
		if st.pages[pg].undiffed != nil {
			pr.forceDiff(c, st, pg, stats.Synch)
		}
		// Apply the piggybacked diffs directly; the page stays valid
		// and the later access fault (and diff fetch) never happens.
		for _, wn := range refs {
			d := covering(wn)
			pr.applyDiff(c, *d, pp.DiffCycles(d.d.DataBytes()), stats.Synch)
			if pr.noted != nil {
				pr.noted(st.id, wn)
			}
		}
	}
	pr.applyWNs(c, st, fresh[:fallback])
	st.fresh = fresh[:0]
}

// handleAcqReq lands an ownership request at the lock's manager. The
// requester's vector clock waits in its per-processor state for the
// eventual grant, which may be immediate or come off the wait queue.
func (pr *TM) handleAcqReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(acqReq)
	pr.ps[req.from].stashVC = req.vc
	pr.LockRequest(s, req.lock, req.from)
}

// Grant implements proto.LockCoherence. TreadMarks keeps no chain state
// at the manager, so the record carries just the processor; the manager
// then asks the last releaser to build the grant (it owns the freshest
// consistency information), or grants directly when the lock has no
// history or returns to its last releaser.
func (pr *TM) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	pr.CommitGrant(s, lock, to, fromQueue, 0, nil)
	vc := pr.ps[to].stashVC
	// Neither send charges: the acquire and release handlers charged the
	// queue work, and the grant body is costed at the releaser.
	if last := pr.Lock(lock).LastReleaser; last >= 0 && last != to {
		s.Send(last, kGrantReq, 8+4*pr.nprocs,
			grantReq{lock: lock, to: to, vc: vc}, pr.h.grantReq)
		return
	}
	s.Send(to, kGrant, 8+4*pr.nprocs,
		&grantMsg{lock: lock, vc: vc}, pr.h.grant)
}

// handleGrantReq runs at the last releaser: build the write-notice set and
// forward the grant to the acquirer. Under Lazy Hybrid the releaser also
// piggybacks the diffs of its own intervals named in the notices —
// creating them here, on its critical path, which is the LH trade-off.
func (pr *TM) handleGrantReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(grantReq)
	st := pr.ps[m.To]
	wns := pr.collectWNs(req.to, st.vc, req.vc)
	s.ChargeList(len(wns))
	g := &grantMsg{lock: req.lock, wns: wns, vc: st.vc}
	size := 8 + 16*len(wns) + 4*pr.nprocs
	if pr.hybrid {
		for _, wn := range wns {
			if wn.proc != st.id {
				continue
			}
			rec := st.ivals[wn.seq-1]
			d := pr.svcDiff(s, st, rec, wn.page)
			g.piggy = append(g.piggy, ivalDiff{proc: rec.proc, seq: rec.seq, vc: rec.vc, d: d})
			size += d.EncodedBytes() + 4*pr.nprocs
		}
	}
	s.Send(req.to, kGrant, size, g, pr.h.grant)
}

// handleGrant lands the grant at the acquirer.
func (pr *TM) handleGrant(s *sim.Svc, m *sim.Msg) {
	g := m.Payload.(*grantMsg)
	pr.e.Tracer.Lock(s.Now, m.To, trace.KindLockGrant, g.lock, int64(m.From), int64(len(g.wns)))
	pr.ps[m.To].grant = g
	s.Wake(s.P)
}

// Release implements the lazy release: close the interval locally and tell
// the manager; no data or consistency information moves until the next
// acquire.
func (pr *TM) Release(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRelease, lock, 0, 0)
	pr.closeInterval(c, st)
	c.Epoch++
	pr.e.SendFrom(c.P, stats.Synch, pr.MgrOf(lock), kRel, 8,
		relMsg{lock: lock}, pr.h.rel)
}

// handleRel lands a release at the lock's manager; a lazy release leaves
// no chain state behind.
func (pr *TM) handleRel(s *sim.Svc, m *sim.Msg) {
	s.ChargeList(1)
	pr.LockRelease(s, m.Payload.(relMsg).lock, m.From, 0, nil, nil)
}

// Barrier implements the TreadMarks barrier: everyone ships its new
// interval summaries and vector clock to the manager, which merges and
// rebroadcasts; arrivals then invalidate per the write notices.
func (pr *TM) Barrier(c *proto.Ctx) {
	st := pr.ps[c.ID]
	pr.closeInterval(c, st)
	// Summaries of own intervals created since the last barrier, in the
	// arrival's scratch: the last barrier's could not complete before its
	// receiver had copied them.
	wns := proto.Reuse(st.arrive.wns, poisonWN)
	for _, rec := range st.ivals[st.lastBarSeq:] {
		for _, pg := range rec.pages {
			wns = append(wns, wnRef{proc: st.id, seq: rec.seq, page: pg})
		}
	}
	st.lastBarSeq = st.vc[st.id]
	c.P.Advance(pr.e.Params.ListCycles(len(wns)), stats.Synch)

	pr.e.Tracer.Event(c.P.Clock, c.ID, trace.KindBarrierArrive, int64(len(wns)), 0)
	st.barOut = false
	st.arrive = barArrive{proc: c.ID, vc: st.vc, wns: wns, count: 1}
	pr.e.SendFrom(c.P, stats.Synch, pr.relay.ArrivalDest(c.ID), kBarArrive,
		16+16*len(wns)+4*pr.nprocs, &st.arrive, pr.h.barArrive)
	c.P.WaitUntil(func() bool { return st.barOut }, stats.Synch)
	c.Epoch++
}

// handleBarArrive collects arrivals. An interior node of the combining
// tree merges its subtree's clocks and notices into one upstream message;
// the manager (the tree root) releases everyone once the whole machine
// has arrived. The flat barrier routes every count-1 arrival straight to
// the manager, exactly as in the seed.
func (pr *TM) handleBarArrive(s *sim.Svc, m *sim.Msg) {
	a := m.Payload.(*barArrive)
	s.ChargeList(len(a.wns) + 1)
	if m.To == proto.BarMgr && a.count == 1 {
		// Per-processor arrivals keep the seed's duplicate guard; a
		// combined arrival already aggregated its subtree exactly once.
		if pr.barSeen[a.proc] {
			panic(fmt.Sprintf("tm: duplicate barrier arrival from %d", a.proc))
		}
		pr.barSeen[a.proc] = true
	}
	st := pr.ps[m.To]
	count, complete := pr.relay.Gather(m.To, a.count)
	if count == a.count {
		// The episode's first arrival here. An interior node's parent has
		// copied the last episode's subtree, so its lists start over in
		// place. The manager's were published by the release, which may
		// still be in flight to a slow processor while the next barrier's
		// first arrivals land here, so they are fresh, the list sized by
		// the last episode's.
		if m.To == proto.BarMgr {
			st.combVC = make([]int, pr.nprocs)
			st.combWNs = make([]wnRef, 0, len(st.combWNs))
		} else {
			if st.combVC == nil {
				st.combVC = make([]int, pr.nprocs)
			}
			clear(st.combVC)
			st.combWNs = proto.Reuse(st.combWNs, poisonWN)
		}
	}
	mergeVC(st.combVC, a.vc)
	st.combWNs = append(st.combWNs, a.wns...)
	if !complete {
		return
	}
	vc, wns := st.combVC, st.combWNs
	if m.To != proto.BarMgr {
		s.ChargeList(count)
		st.up = barArrive{proc: m.To, vc: vc, wns: wns, count: count}
		pr.relay.Up(s, m.To, kBarArrive, 16+16*len(wns)+4*pr.nprocs+16*(count-1), &st.up, pr.h.barArrive)
		return
	}
	clear(pr.barSeen)
	s.ChargeList(len(wns))
	pr.relay.Broadcast(s, kBarRelease, 16+16*len(wns)+4*pr.nprocs,
		barRelease{wns: wns, vc: vc}, pr.h.barRelease)
}

// handleBarRelease applies the merged consistency information and releases
// the processor from the barrier, relaying the release to its combining-
// tree children first.
func (pr *TM) handleBarRelease(s *sim.Svc, m *sim.Msg) {
	r := m.Payload.(barRelease)
	pr.relay.Down(s, m, pr.h.barRelease)
	st := pr.ps[m.To]
	ctx := pr.ctxs[m.To]
	fresh := pr.applyWNs(ctx, st, r.wns)
	s.ChargeList(fresh)
	// The release clock covers the clock this processor arrived with, so
	// joinVC adopts it: after a barrier every processor shares one clock.
	st.vc = joinVC(st.vc, r.vc)
	pr.e.Tracer.Event(s.Now, m.To, trace.KindBarrierDepart, int64(fresh), 0)
	st.barOut = true
	s.Wake(s.P)
}
