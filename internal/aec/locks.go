package aec

import (
	"fmt"

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
	if st.grant != nil {
		panic("aec: nested acquire reply outstanding")
	}
	pp := &pr.e.Params

	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRequest, lock, int64(pr.MgrOf(lock)), 0)
	pr.e.SendFrom(c.P, stats.Synch, pr.MgrOf(lock), kAcqReq, 8,
		acqReq{lock: lock}, pr.h.acqReq)

	// Overlap window: apply pushed diffs for this lock to valid pages,
	// then create outside diffs, until the grant arrives (§3.2). Work
	// performed before the grant is hidden behind the synchronization
	// delay (Table 4). Application status lives in the push buffer
	// itself: a fresher push replacing the buffer must be re-applied.
	for st.grant == nil && !pr.opt.NoAcquireOverlap {
		if !pr.overlapUnit(c, st, lock) {
			break
		}
	}
	if st.grant == nil {
		c.P.WaitTag = "grant"
		c.P.WaitUntil(func() bool { return st.grant != nil }, stats.Synch)
	}
	g := st.grant
	st.grant = nil

	st.inCS++
	st.curLock = lock
	clear(st.dirtyInside)
	st.lockLastOwner[lock] = g.lastReleaser
	st.lockPages[lock] = g.invPages
	st.lockUS[lock] = g.us
	st.lockMyCount[lock] = g.myCount

	// Bump the write epoch so first writes inside the CS trap and twin.
	c.Epoch++

	if g.lastReleaser < 0 || g.lastReleaser == c.ID {
		// First acquisition, or we were the last releaser ourselves:
		// nothing to bring in; our merged chain continues.
		if g.lastReleaser == c.ID {
			st.inherited[lock] = st.myMerged[lock]
		} else {
			st.inherited[lock] = make(map[int]*mem.Diff)
		}
		return
	}

	buf := st.recv[lock]
	isFresh := func() bool {
		b := st.recv[lock]
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
		c.P.WaitTag = "push"
		c.P.WaitUntil(func() bool { return isFresh() || timedOut }, stats.Synch)
		buf = st.recv[lock]
		fresh = isFresh()
		if !fresh {
			c.P.Stats.LAPFallbacks++
			pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLAPFallback, lock, int64(g.lastReleaser), 0)
		}
	}
	if g.inUS && len(g.invPages) == 0 {
		// Nothing to bring in for an empty chain.
		st.inherited[lock] = make(map[int]*mem.Diff)
		return
	}
	if fresh {
		// Continue applying the pushed diffs (now exposed): valid pages
		// get patched; diffs for invalid pages wait for access faults.
		st.inherited[lock] = buf.diffs
		for _, pg := range sortedDiffPages(buf.diffs) {
			if buf.applied[pg] {
				continue
			}
			f := c.M.Peek(pg)
			if f.Valid {
				d := buf.diffs[pg]
				// Publish before the apply charge: handlePush may
				// replace st.recv[lock] while virtual time advances,
				// and the flags must land in the buffer the diff was
				// read from (the PR 2 double-diff lesson).
				st.accessedCur[pg] = true
				// The loop-carried write below lands in buf on purpose:
				// even if handlePush swaps st.recv[lock] during the apply
				// charge, the applied flags belong to the buffer this
				// iteration's diff was read from, not the replacement.
				buf.applied[pg] = true
				pr.chargeDiffApply(c, d, stats.Synch, false)
				pr.applyDiffData(c, d)
			}
		}
		delete(st.recv, lock)
		return
	}

	// Not in the update set (or a stale push): invalidate the chain's
	// pages; merged diffs will be fetched from the last owner at access
	// faults (and topped up at release). Any optimistically applied
	// pushed diffs are wasted (§2: misprediction cost).
	if buf != nil {
		c.P.Stats.UselessUpdates += uint64(len(buf.diffs))
		delete(st.recv, lock)
	}
	st.inherited[lock] = make(map[int]*mem.Diff)
	inval := 0
	for _, pg := range g.invPages {
		f := c.M.Peek(pg)
		if f.Valid {
			c.M.Invalidate(pg)
			st.reason[pg] = invalLock
			st.invalLockID[pg] = lock
			inval++
		} else if st.reason[pg] == invalNone && f.EverValid {
			st.reason[pg] = invalLock
			st.invalLockID[pg] = lock
		}
	}
	c.P.Stats.Invalidations += uint64(inval)
	c.P.Advance(pp.ListCycles(len(g.invPages)), stats.Synch)
}

// overlapUnit performs one unit of overlappable work during an acquire
// wait: apply one pushed diff, or create one outside diff. Reports whether
// any work was done.
func (pr *AEC) overlapUnit(c *proto.Ctx, st *procState, lock int) bool {
	// 1: apply a pushed diff for this lock to a currently valid page.
	if buf := st.recv[lock]; buf != nil {
		for _, pg := range sortedDiffPages(buf.diffs) {
			if buf.applied[pg] || !c.M.Peek(pg).Valid {
				continue
			}
			d := buf.diffs[pg]
			// Publish before the apply charge (see the grant path).
			st.accessedCur[pg] = true
			buf.applied[pg] = true
			pr.chargeDiffApply(c, d, stats.Synch, true)
			pr.applyDiffData(c, d)
			return true
		}
	}
	// 2: create an outside diff for a modified page (speculative; saved
	// twins and write protection per §3.2).
	for _, pg := range sortedPages(st.dirtyOutside) {
		if st.outsideDiff[pg] != nil {
			continue
		}
		f := c.M.Frame(pg)
		// Transient: recycled when it leaves outsideDiff, discarded at
		// Release or merged into the step's final diff.
		d := c.M.MakeTransientDiff(pg, f.Twin, pr.e.Params.WordBytes)
		pr.chargeDiffCreateOpt(c, d, stats.Synch, true, true)
		if d == nil {
			// Page was re-written with identical contents; treat as
			// clean for this interval.
			st.outsideDiff[pg] = &mem.Diff{Page: pg}
		} else {
			st.outsideDiff[pg] = d
		}
		// The twin stays at its step-start snapshot (it is "saved", per
		// §3.2): the speculative diff can then be discarded at release
		// without losing the modifications it described.
		writeProtect(f)
		return true
	}
	return false
}

// handleAcqReq lands an ownership request at the lock's manager.
func (pr *AEC) handleAcqReq(s *sim.Svc, m *sim.Msg) {
	pr.LockRequest(s, m.Payload.(acqReq).lock, m.From)
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
		us = l.Pred.UpdateSet(to)
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
	g := grantMsg{
		lock:         lock,
		lastReleaser: l.LastReleaser,
		lastCount:    l.LastCount,
		myCount:      l.Count,
		inUS:         inUS,
		us:           us,
		invPages:     append([]int(nil), l.CumPages...),
	}
	size := 24 + 8*len(us)
	if !inUS && l.LastReleaser >= 0 && l.LastReleaser != to {
		size += 8 * len(g.invPages)
		s.ChargeList(len(g.invPages))
	}
	s.Send(to, kAcqGrant, size, g, pr.h.grant)
}

// handleGrant lands the manager's reply at the acquirer.
func (pr *AEC) handleGrant(s *sim.Svc, m *sim.Msg) {
	g := m.Payload.(grantMsg)
	st := pr.ps[m.To]
	st.grant = &g
	pr.e.Tracer.Lock(s.Now, m.To, trace.KindLockGrant, g.lock, int64(g.lastReleaser), int64(g.myCount))
	s.Wake(s.P)
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
	pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRelease, lock, int64(st.lockMyCount[lock]), 0)

	// Top up the inherited chain: any cumulative pages we never faulted
	// on must be fetched now so the chain stays complete.
	inherited := st.inherited[lock]
	if owner := st.lockLastOwner[lock]; owner >= 0 && owner != c.ID {
		var missing []int
		for _, pg := range st.lockPages[lock] {
			if _, ok := inherited[pg]; !ok {
				missing = append(missing, pg)
			}
		}
		if len(missing) > 0 {
			diffs := pr.fetchLockDiffs(c, lock, owner, missing, stats.Synch)
			// Reload after the fetch round-trip: virtual time advanced
			// while we waited, so the chain reference must be refreshed
			// before publishing into it.
			inherited = st.inherited[lock]
			for _, d := range diffs {
				if d != nil {
					inherited[d.Page] = d
				}
			}
		}
	}

	// Create the inside diffs and merge with the inherited chain.
	merged := make(map[int]*mem.Diff, len(inherited)+len(st.dirtyInside))
	for pg, d := range inherited {
		merged[pg] = d
	}
	for _, pg := range sortedPages(st.dirtyInside) {
		f := c.M.Frame(pg)
		if f.Twin == nil {
			continue
		}
		d := c.M.MakeTransientDiff(pg, f.Twin, pr.e.Params.WordBytes)
		pr.chargeDiffCreate(c, d, stats.Synch, false)
		if d != nil {
			m := pr.merge2(merged[pg], d)
			c.M.RecycleDiff(d)
			merged[pg] = m
			if inherited[pg] != nil {
				c.P.Stats.DiffsMerged++
				c.P.Stats.MergedBytes += uint64(m.EncodedBytes())
				pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffMerge, pg, m.ID, int64(m.EncodedBytes()), 0)
			}
		}
		c.M.DropTwin(pg)
		writeProtect(f)
	}
	st.myMerged[lock] = merged
	delete(st.inherited, lock)

	// Push the merged diffs to the update set the manager computed for
	// us at grant time.
	myCount := st.lockMyCount[lock]
	pages := sortedDiffPages(merged)
	if pr.opt.UseLAP && len(st.lockUS[lock]) > 0 && len(merged) > 0 {
		diffs := make([]*mem.Diff, 0, len(merged))
		bytes := 0
		for _, pg := range pages {
			diffs = append(diffs, merged[pg])
			bytes += merged[pg].EncodedBytes()
		}
		for _, q := range st.lockUS[lock] {
			if q == c.ID {
				continue
			}
			c.P.Stats.UpdatesPushed++
			c.P.Stats.UpdateBytesPushed += uint64(bytes)
			pr.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLAPPush, lock, int64(q), int64(bytes))
			// Best effort: a push is an optimization, not a protocol
			// obligation. Under fault injection a lost push is never
			// retransmitted — the predicted acquirer times out and
			// falls back to explicit fetches (degraded-mode LAP).
			pr.e.SendFromBestEffort(c.P, stats.Synch, q, kPush, bytes,
				pushMsg{lock: lock, from: c.ID, count: myCount, step: st.step, diffs: diffs},
				pr.h.push)
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
	for _, pg := range sortedPages(st.dirtyOutside) {
		if st.dirtyInside[pg] || st.twinStep[pg] != st.step {
			continue
		}
		c.M.RecycleDiff(st.outsideDiff[pg])
		delete(st.outsideDiff, pg)
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
	old := st.recv[p.lock]
	if old != nil && (old.step > p.step || (old.step == p.step && old.count > p.count)) {
		pr.ctxs[m.To].P.Stats.UselessUpdates += uint64(len(p.diffs))
		return
	}
	if old != nil {
		pr.ctxs[m.To].P.Stats.UselessUpdates += uint64(len(old.diffs))
	}
	buf := &recvBuf{from: p.from, count: p.count, step: p.step,
		diffs: make(map[int]*mem.Diff, len(p.diffs)), applied: make(map[int]bool)}
	for _, d := range p.diffs {
		buf.diffs[d.Page] = d
	}
	st.recv[p.lock] = buf
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
// release top-up).
func (pr *AEC) fetchLockDiffs(c *proto.Ctx, lock, owner int, pages []int, cat stats.Category) []*mem.Diff {
	c.P.Stats.DiffRequests++
	c.P.WaitTag = "diffreq"
	return c.Call(cat, owner, kDiffReq, 8+8*len(pages),
		diffReq{lock: lock, pages: pages}, pr.h.diffReq).([]*mem.Diff)
}

// handleDiffReq serves merged CS diffs from the last owner's store.
func (pr *AEC) handleDiffReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(diffReq)
	st := pr.ps[m.To]
	s.ChargeList(len(req.pages))
	merged := st.myMerged[req.lock]
	var out []*mem.Diff
	bytes := 0
	for _, pg := range req.pages {
		st.reqSeen[pg] = true
		if d := merged[pg]; d != nil {
			out = append(out, d)
			bytes += d.EncodedBytes()
		}
	}
	pr.ctxs[m.From].Reply(s, kDiffRep, bytes, out)
}
