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
	// The request carries the clock on the wire; the manager reads it
	// here, by reference: st.vc is replaced, never written.
	st.acqVC = st.vc
	pr.Request(c, lock, 8+4*pr.nprocs)
	g := c.Await(stats.Synch, nil).(*grantMsg)

	c.P.Advance(pr.e.Params.ListCycles(len(g.wns)), stats.Synch)
	// The clock after the grant is what a page the piggybacked diffs
	// bring up to date has seen.
	vc := joinVC(st.vc, g.vc)
	if pr.hybrid && len(g.piggy) > 0 {
		pr.applyWNsHybrid(c, st, g.wns, g.piggy, vc)
	} else {
		pr.applyWNs(c, st, g.wns)
	}
	// Only a grant's slice goes back: barrier notice sets are shared
	// across release messages and stay unpooled.
	pr.wns.Put(g.wns)
	st.vc = vc
	c.Epoch++
}

// applyWNsHybrid consumes the grant's write notices, applying piggybacked
// diffs in place of invalidations where they fully cover a cached page's
// notices (the Lazy Hybrid fast path); everything else falls back to the
// usual invalidation. A page applied directly has seen vc, the clock
// after the grant.
func (pr *TM) applyWNsHybrid(c *proto.Ctx, st *tmProc, wns []wnRef, piggy []ivalDiff, vc []int) {
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
		// A page is hybrid-applicable if it is locally valid — so nothing
		// before this grant is unapplied — and every fresh notice for it
		// is covered by a piggyback.
		ok := c.M.Peek(pg).Valid
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
				pr.noted(st.id, wn, true)
			}
		}
		st.pages[pg].seen = vc
	}
	pr.applyWNs(c, st, fresh[:fallback])
	st.fresh = fresh[:0]
}

// Grant implements proto.LockCoherence. TreadMarks keeps no chain state
// at the manager, so the record carries just the processor; the manager
// then asks the last releaser to build the grant (it owns the freshest
// consistency information), or grants directly when the lock has no
// history or returns to its last releaser.
func (pr *TM) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	pr.CommitGrant(s, lock, to, fromQueue, 0, nil)
	st := pr.ps[to]
	vc := st.acqVC
	// Neither send charges: the acquire and release handlers charged the
	// queue work, and the grant body is costed at the releaser.
	if last := pr.Lock(lock).LastReleaser; last >= 0 && last != to {
		st.build = grantReq{lock: lock, to: to, vc: vc}
		s.Send(last, kGrantReq, 8+4*pr.nprocs, &st.build, pr.h.grantReq)
		return
	}
	pr.SendGrant(s, to, lock, 8+4*pr.nprocs, pr.grantTo(to, nil, vc), s.P.ID, 0)
}

// handleGrantReq runs at the last releaser: build the write-notice set and
// forward the grant to the acquirer. Under Lazy Hybrid the releaser also
// piggybacks the diffs of its own intervals named in the notices —
// creating them here, on its critical path, which is the LH trade-off.
func (pr *TM) handleGrantReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(*grantReq)
	st := pr.ps[m.To]
	wns := pr.collectWNs(req.to, st.vc, req.vc)
	s.ChargeList(len(wns))
	g := pr.grantTo(req.to, wns, st.vc)
	size := 8 + 16*len(wns) + 4*pr.nprocs
	if pr.hybrid {
		for _, wn := range wns {
			if wn.proc != st.id {
				continue
			}
			rec := st.ivals[wn.seq-1]
			d := pr.svcDiff(s, st, rec, wn.page)
			g.piggy = append(g.piggy, ivalDiff{rec, d})
			size += d.EncodedBytes() + 4*pr.nprocs
		}
	}
	pr.SendGrant(s, req.to, req.lock, size, g, s.P.ID, len(wns))
}

// Release implements the lazy release: close the interval locally and tell
// the manager; no data or consistency information moves until the next
// acquire.
func (pr *TM) Release(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRelease, lock, 0, 0)
	pr.closeInterval(c, st)
	c.Epoch++
	// A lazy release leaves no chain state behind.
	pr.Relinquish(c, lock)
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
	st.arrive = barArrive{proc: c.ID, vc: st.vc, wns: wns, count: 1}
	pr.relay.Arrive(c, 16+16*len(wns)+4*pr.nprocs, &st.arrive, pr.h.barArrive)
	c.Await(stats.Synch, nil)
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
		pr.relay.Up(s, m.To, 16+16*len(wns)+4*pr.nprocs+16*(count-1), &st.up, pr.h.barArrive)
		return
	}
	clear(pr.barSeen)
	s.ChargeList(len(wns))
	pr.relay.Broadcast(s, 16+16*len(wns)+4*pr.nprocs,
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
	ctx.Land(s, nil)
}
