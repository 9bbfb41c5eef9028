package aec

import (
	"fmt"
	"slices"

	"aecdsm/internal/bitset"
	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Acquire implements the lock acquire operation of §3.2: send the
// ownership request, then overlap diff application (pushed updates) and
// outside-diff creation with the wait for the manager's reply.
func (pr *AEC) Acquire(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	pp := &pr.e.Params

	pr.Request(c, lock, 8)

	// Overlap window: apply pushed diffs for this lock to valid pages,
	// then create outside diffs, until the grant arrives (§3.2). Work
	// performed before the grant is hidden behind the synchronization
	// delay (Table 4). Application status lives in the push buffer
	// itself: a fresher push replacing the buffer must be re-applied.
	lc := st.lock(lock)
	g := c.Await(stats.Synch, func() bool { return pr.overlapUnit(c, st, lc) }).(*grantMsg)

	st.inCS++
	st.curLock = lock
	clear(st.dirtyInside)
	lc.lastOwner, lc.myCount, lc.pages, lc.us = g.lastReleaser, g.myCount, g.invPages, g.us

	// Bump the write epoch so first writes inside the CS trap and twin.
	c.Epoch++

	if g.lastReleaser < 0 || g.lastReleaser == c.ID {
		// First acquisition, or we were the last releaser ourselves:
		// nothing to bring in; our merged chain continues.
		lc.inherited = nil
		if g.lastReleaser == c.ID {
			lc.inherited = lc.myMerged
		}
		return
	}

	buf := lc.recv
	isFresh := func() bool {
		b := lc.recv
		return b != nil && b.from == g.lastReleaser && b.count == g.lastCount
	}
	fresh := isFresh()
	if g.inUS && !fresh && len(g.invPages) > 0 {
		// The push is still in flight (sent before the release message
		// that triggered this grant): wait for it. An empty chain means
		// no push was sent at all. Under fault injection pushes are
		// best-effort and may be lost outright, so the wait is bounded:
		// on timeout we degrade to the invalidate + explicit-fetch path
		// below instead of wedging the lock's waiting queue.
		timedOut := false
		if fi := pr.e.Faults; fi != nil {
			p := c.P
			deadline := p.Clock + fi.PushTimeout()
			pr.e.At(deadline, func() {
				timedOut = true
				p.Wake(deadline)
			})
		}
		c.P.WaitUntil(func() bool { return isFresh() || timedOut }, stats.Synch)
		buf = lc.recv
		fresh = isFresh()
		if !fresh {
			c.P.Stats.LAPFallbacks++
			pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLAPFallback, lock, int64(g.lastReleaser), 0)
		}
	}
	if g.inUS && len(g.invPages) == 0 {
		// Nothing to bring in for an empty chain.
		lc.inherited = nil
		return
	}
	if fresh {
		// Continue applying the pushed diffs (now exposed): valid pages
		// get patched; diffs for invalid pages wait for access faults.
		lc.inherited = buf.diffs
		for _, d := range buf.diffs {
			pg := d.Page
			if buf.applied.Has(pg) {
				continue
			}
			f := c.M.Peek(pg)
			if f.Valid {
				// Publish before the apply charge: handlePush may
				// replace lc.recv while virtual time advances, and the
				// flags must land in the buffer the diff was read from,
				// whichever buffer lc.recv names by then.
				st.pages[pg].lastAccess = st.step
				// The loop-carried write below lands in buf on purpose:
				// even if handlePush swaps lc.recv during the apply
				// charge, the applied flags belong to the buffer this
				// iteration's diff was read from, not the replacement.
				buf.applied = buf.applied.Add(pg)
				pr.applyDiff(c, d, stats.Synch, false)
			}
		}
		lc.recv = nil
		return
	}

	// Not in the update set (or a stale push): invalidate the chain's
	// pages; merged diffs will be fetched from the last owner at access
	// faults (and topped up at release). Any optimistically applied
	// pushed diffs are wasted (§2: misprediction cost).
	if buf != nil {
		c.P.Stats.UselessUpdates += uint64(len(buf.diffs))
		lc.recv = nil
	}
	lc.inherited = nil
	inval := 0
	for _, pg := range g.invPages {
		p := &st.pages[pg]
		f := c.M.Peek(pg)
		if f.Valid {
			c.M.Invalidate(pg)
			p.reason, p.invalLock = invalLock, lock
			inval++
		} else if p.reason == invalNone && f.EverValid {
			p.reason, p.invalLock = invalLock, lock
		}
	}
	c.P.Stats.Invalidations += uint64(inval)
	c.P.Advance(pp.ListCycles(len(g.invPages)), stats.Synch)
}

// overlapUnit performs one unit of overlappable work during an acquire
// wait: apply one pushed diff, or create one outside diff. Reports whether
// any work was done.
func (pr *AEC) overlapUnit(c *proto.Ctx, st *procState, lc *lockChain) bool {
	// 1: apply a pushed diff for this lock to a currently valid page.
	if buf := lc.recv; buf != nil {
		for _, d := range buf.diffs {
			pg := d.Page
			if buf.applied.Has(pg) || !c.M.Peek(pg).Valid {
				continue
			}
			// Publish before the apply charge (see the grant path).
			st.pages[pg].lastAccess = st.step
			buf.applied = buf.applied.Add(pg)
			pr.applyDiff(c, d, stats.Synch, true)
			return true
		}
	}
	// 2: create an outside diff for a modified page (speculative; saved
	// twins and write protection per §3.2).
	for _, pg := range st.snapshot(st.dirtyOutside) {
		p := &st.pages[pg]
		if p.outsideDiff != nil {
			continue
		}
		f := c.M.Frame(pg)
		// Transient: recycled when it leaves outsideDiff, discarded at
		// Release or merged into the step's final diff.
		d := c.M.MakeTransientDiff(pg, f.Twin, pr.e.Params.WordBytes)
		pr.chargeDiffCreate(c, d, stats.Synch, true, true)
		if d == nil {
			// Page was re-written with identical contents; treat as
			// clean for this interval.
			p.outsideDiff = &mem.Diff{Page: pg}
		} else {
			p.outsideDiff = d
		}
		// The twin stays at its step-start snapshot (it is "saved", per
		// §3.2): the speculative diff can then be discarded at release
		// without losing the modifications it described.
		writeProtect(f)
		return true
	}
	return false
}

// Grant implements proto.LockCoherence: the grant carries the acquire
// counter of the new tenure and, under LAP, the update set the grantee
// will push to at its release; the message tells the acquirer how to bring
// its memory up to date — whether the last releaser pushed to it, and the
// chain's cumulative pages to invalidate if not.
func (pr *AEC) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	l := pr.Lock(lock)
	var us []int
	if pr.opt.UseLAP {
		// Granted computed the set a moment ago; the charge still models
		// the manager computing it.
		us = l.Pred.Predicted()
		s.ChargeList(len(us) + 1)
	}
	// Grants and releases alternate, so the last release carries the
	// counter of the newest grant.
	pr.CommitGrant(s, lock, to, fromQueue, l.LastCount+1, us)

	inUS := false
	for _, q := range l.LastUS {
		if q == to {
			inUS = true
			break
		}
	}
	g := &grantMsg{
		lastReleaser: l.LastReleaser,
		lastCount:    l.LastCount,
		myCount:      l.Count,
		inUS:         inUS,
		us:           us,
		invPages:     l.CumPages,
	}
	size := 24 + 8*len(us)
	if !inUS && l.LastReleaser >= 0 && l.LastReleaser != to {
		size += 8 * len(g.invPages)
		s.ChargeList(len(g.invPages))
	}
	pr.SendGrant(s, to, lock, size, g, l.LastReleaser, l.Count)
}

// Release implements the lock release operation of §3.2: create the diffs
// of the pages modified inside the critical section, merge them with the
// diffs inherited from the last owner, push the result to the update set,
// and give up ownership to the manager. None of this can be overlapped
// (the next acquirer must not see stale data), so it is all exposed.
func (pr *AEC) Release(c *proto.Ctx, lock int) {
	st := pr.ps[c.ID]
	if st.inCS == 0 || st.curLock != lock {
		panic(fmt.Sprintf("aec: release of lock %d not held (cur %d)", lock, st.curLock))
	}
	lc := st.lock(lock)
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRelease, lock, int64(lc.myCount), 0)

	// Top up the inherited chain: any cumulative pages we never faulted
	// on must be fetched now so the chain stays complete.
	if owner := lc.lastOwner; owner >= 0 && owner != c.ID {
		var missing []int
		for _, pg := range lc.pages {
			if chainDiff(lc.inherited, pg) == nil {
				missing = append(missing, pg)
			}
		}
		if len(missing) > 0 {
			for _, d := range pr.fetchLockDiffs(c, lock, owner, missing, stats.Synch) {
				lc.inherited = withDiff(lc.inherited, d)
			}
		}
	}

	// Create the inside diffs and merge them into a copy of the inherited
	// chain: the copy is both myMerged and the push.
	merged := append(make([]*mem.Diff, 0, len(lc.inherited)+st.dirtyInside.Count()), lc.inherited...)
	// Every page in dirtyInside was twinned by its write fault in this
	// critical section, and nothing drops an inside twin before here.
	for _, pg := range st.snapshot(st.dirtyInside) {
		f := c.M.Frame(pg)
		d := c.M.MakeTransientDiff(pg, f.Twin, pr.e.Params.WordBytes)
		pr.chargeDiffCreate(c, d, stats.Synch, false, false)
		if d != nil {
			i, ok := chainIndex(merged, pg)
			if !ok {
				merged = slices.Insert(merged, i, nil)
			}
			m := pr.merger.Merge(merged[i], d)
			merged[i] = m
			c.M.RecycleDiff(d)
			if ok {
				c.P.Stats.DiffsMerged++
				c.P.Stats.MergedBytes += uint64(m.EncodedBytes())
				pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffMerge, pg, m.ID, int64(m.EncodedBytes()), 0)
			}
		}
		c.M.DropTwin(pg)
		writeProtect(f)
	}
	lc.myMerged = merged
	lc.inherited = nil

	// Push the merged diffs to the update set the manager computed for
	// us at grant time.
	myCount := lc.myCount
	pages := chainPages(merged)
	if pr.opt.UseLAP && len(lc.us) > 0 && len(merged) > 0 {
		bytes := 0
		for _, d := range merged {
			bytes += d.EncodedBytes()
		}
		// One box for the whole fan-out: a sent payload is read-only.
		var push any = pushMsg{lock: lock, from: c.ID, count: myCount, step: st.step, diffs: merged}
		for _, q := range lc.us {
			if q == c.ID {
				// lap.UpdateSet leaves out the holder it is computed for.
				panic(fmt.Sprintf("aec: lock %d's update set names its releaser %d", lock, q))
			}
			c.P.Stats.UpdatesPushed++
			c.P.Stats.UpdateBytesPushed += uint64(bytes)
			pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLAPPush, lock, int64(q), int64(bytes))
			// Best effort: a push is an optimization, not a protocol
			// obligation. Under fault injection a lost push is never
			// retransmitted — the predicted acquirer times out and
			// falls back to explicit fetches (degraded-mode LAP).
			pr.e.SendFromBestEffort(c.P, stats.Synch, q, kPush, bytes, push, pr.h.push)
		}
	}

	// Tell the manager we are giving up ownership.
	pr.e.SendFrom(c.P, stats.Synch, pr.MgrOf(lock), kRel, 8+8*len(pages),
		relMsg{lock: lock, count: myCount, step: st.step, pages: pages}, pr.h.rel)

	// Unprotect pages modified outside the CS and not inside it; their
	// speculative outside diffs are discarded and twins reutilized. Only
	// pages twinned in the CURRENT step stay writable: a page whose twin
	// belongs to an earlier step must trap on its next write so the old
	// step's diff is archived and the twin renewed (otherwise its write
	// notices for the new step are never generated).
	for _, pg := range st.snapshot(st.dirtyOutside) {
		p := &st.pages[pg]
		if st.dirtyInside.Has(pg) || p.twinStep != st.step {
			continue
		}
		c.M.RecycleDiff(p.outsideDiff)
		p.outsideDiff = nil
		f := c.M.Peek(pg)
		if f.Data != nil {
			f.WriteEpoch = c.Epoch + 1 // writable again in the new epoch
		}
	}

	clear(st.dirtyInside)
	st.inCS--
	st.curLock = -1
	c.Epoch++
}

// handlePush lands an update-set push at a predicted next acquirer. Only
// the freshest push per lock is kept; older ones are wasted updates.
func (pr *AEC) handlePush(s *sim.Svc, m *sim.Msg) {
	p := m.Payload.(pushMsg)
	st := pr.ps[m.To]
	s.ChargeList(len(p.diffs))
	if p.step < st.step {
		// Push from a previous barrier step: the barrier already made
		// everyone coherent; this update is stale and wasted. Pushes
		// from a step the sender reached first are kept (the receiver
		// will cross the same barrier before consuming them).
		pr.ctxs[m.To].P.Stats.UselessUpdates += uint64(len(p.diffs))
		return
	}
	lc := st.lock(p.lock)
	old := lc.recv
	if old != nil && (old.step > p.step || (old.step == p.step && old.count > p.count)) {
		pr.ctxs[m.To].P.Stats.UselessUpdates += uint64(len(p.diffs))
		return
	}
	if old != nil {
		pr.ctxs[m.To].P.Stats.UselessUpdates += uint64(len(old.diffs))
	}
	lc.recv = &recvBuf{from: p.from, count: p.count, step: p.step,
		diffs: p.diffs, applied: bitset.New(len(st.pages))}
	// The acquirer may be waiting for exactly this push.
	s.Wake(s.P)
}

// handleRel lands a release at the lock's manager: the chain state it
// leaves behind is the releaser's update set and cumulative page list. A
// release sent before a barrier that has since completed transfers
// ownership but not chain state: the barrier already distributed the
// merged diffs (and the releaser's push was dropped at the step boundary),
// so the chain restarts empty. The journal thus records the RESULTING
// chain, never the message: replaying "r.step == pr.bar.seq" later would
// consult the wrong barrier phase (recover package comment).
func (pr *AEC) handleRel(s *sim.Svc, m *sim.Msg) {
	r := m.Payload.(relMsg)
	s.ChargeList(1 + len(r.pages))
	lastUS, cumPages := pr.Lock(r.lock).US, r.pages
	if r.step != pr.bar.seq {
		lastUS, cumPages = nil, nil
	}
	pr.LockRelease(s, r.lock, m.From, r.count, lastUS, cumPages)
}

// fetchLockDiffs synchronously fetches merged diffs for the given pages
// from the last owner of the lock (the lazy path used on faults and at
// release top-up). The reply holds the diffs the owner has, none nil.
func (pr *AEC) fetchLockDiffs(c *proto.Ctx, lock, owner int, pages []int, cat stats.Category) []*mem.Diff {
	c.P.Stats.DiffRequests++
	return c.Call(cat, owner, 8+8*len(pages),
		diffReq{lock: lock, pages: pages}, pr.h.diffReq).([]*mem.Diff)
}

// handleDiffReq serves merged CS diffs from the last owner's store.
func (pr *AEC) handleDiffReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(diffReq)
	st := pr.ps[m.To]
	s.ChargeList(len(req.pages))
	merged := st.lock(req.lock).myMerged
	var out []*mem.Diff
	bytes := 0
	for _, pg := range req.pages {
		st.pages[pg].reqSeen = true
		if d := chainDiff(merged, pg); d != nil {
			out = append(out, d)
			bytes += d.EncodedBytes()
		}
	}
	pr.ctxs[m.From].Reply(s, bytes, out)
}
