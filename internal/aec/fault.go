package aec

import (
	"cmp"
	"slices"

	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// Fault implements the access-fault protocol of §3.4. On entry the page is
// either invalid or (for writes) lacks write permission in the current
// epoch; on exit it is readable and, when requested, writable with a twin
// in place for later diffing.
func (pr *AEC) Fault(c *proto.Ctx, page int, write bool) {
	st := pr.ps[c.ID]
	f := c.M.Frame(page)
	st.faultPage = page

	if !f.Valid {
		pr.validateFault(c, st, page, f)
	}

	if write {
		pr.writeFault(c, st, page, f)
	}
	st.pages[page].lastAccess = st.step
	st.faultPage = -1
}

// validateFault brings an invalid page back to a valid state.
func (pr *AEC) validateFault(c *proto.Ctx, st *procState, page int, f *mem.Frame) {
	p := &st.pages[page]
	// The paper's §3.4 rule: a processor that did not access the page on
	// the previous (or current) step cannot reconstruct it independently
	// — its pending write notices may be incomplete, since only valid-
	// copy holders receive notices. It must ask the page's home for a
	// base copy, which arrives together with the home's own pending
	// write notices and supersedes any stale local ones.
	needBase := !f.EverValid || p.lastAccess < st.step-1
	if needBase {
		pr.fetchPage(c, st, page)
	}

	// Inside a critical section, pages of the lock's cumulative set get
	// the merged CS diffs: from the buffered push when we were in the
	// update set, or fetched from the last owner otherwise.
	if st.inCS > 0 {
		lock := st.curLock
		if lc := st.lock(lock); lc.has(page) {
			if d := chainDiff(lc.inherited, page); d != nil {
				pr.applyDiff(c, d, stats.Data, false)
			} else if owner := lc.lastOwner; owner >= 0 && owner != c.ID {
				diffs := pr.fetchLockDiffs(c, lock, owner, []int{page}, stats.Data)
				for _, d := range diffs {
					pr.applyDiff(c, d, stats.Data, false)
					lc.inherited = withDiff(lc.inherited, d)
				}
			}
		}
	}

	// A page invalidated at a lock grant but faulted on outside that
	// lock's critical section (Entry Consistency programs should not do
	// this, but cold restarts after releases can): fetch the merged
	// diffs from the lock's last owner directly.
	if p.reason == invalLock {
		lock := p.invalLock
		inCur := st.inCS > 0 && st.curLock == lock
		if !inCur {
			if owner := st.lock(lock).lastOwner; owner >= 0 && owner != c.ID {
				diffs := pr.fetchLockDiffs(c, lock, owner, []int{page}, stats.Data)
				for _, d := range diffs {
					pr.applyDiff(c, d, stats.Data, false)
				}
			}
		}
	}

	// Collect the outside diffs named by pending write notices.
	if len(p.pendingWN) > 0 {
		pr.applyWriteNotices(c, st, page, p.pendingWN)
		p.pendingWN = p.pendingWN[:0]
	}

	f.Valid = true
	f.EverValid = true
	p.reason = invalNone
	st.newValid = st.newValid.Add(page)
}

// fetchPage asks the page's home node for a base copy.
func (pr *AEC) fetchPage(c *proto.Ctx, st *procState, page int) {
	p := &st.pages[page]
	home := p.home
	if home == c.ID {
		// We are the home: our copy is the base (degenerate case after
		// racing reassignments); pending WNs still apply below.
		return
	}
	// Preserve our own un-diffed modifications before the incoming base
	// overwrites the frame: the home may not have applied our diff yet,
	// in which case its notice list names us and we replay the archived
	// diff locally.
	if st.dirtyOutside.Has(page) {
		pr.archiveEarly(c, st, page)
	}
	wns := pr.FetchPage(c, page, home).([]mem.WriteNotice)
	// The fresh base supersedes any stale local write notices (their
	// modifications are already in the home's copy); what remains to be
	// applied is exactly the home's own unresolved notice set — which
	// may include notices naming us, replayed from the local archive.
	p.pendingWN = append(p.pendingWN[:0], wns...)
	pr.wns.Put(wns) // the reply's snapshot, its entries now copied by value
}

// pageDelta implements proto.PageDelta: a base copy travels with the
// home's pending write notices for the page, and the home remembers that
// the page is wanted elsewhere (worth diffing eagerly at the next barrier).
func (pr *AEC) pageDelta(home, page, from int) (any, int) {
	p := &pr.ps[home].pages[page]
	p.reqSeen = true
	wns := append(pr.wns.Get(), p.pendingWN...)
	return wns, 16 * len(wns)
}

// applyWriteNotices fetches and applies the outside diffs named by the
// write notices pending on a page, sorting them in place by (writer, step).
func (pr *AEC) applyWriteNotices(c *proto.Ctx, st *procState, page int, wns []mem.WriteNotice) {
	slices.SortFunc(wns, func(a, b mem.WriteNotice) int {
		return cmp.Or(cmp.Compare(a.Writer, b.Writer), cmp.Compare(a.Step, b.Step))
	})
	// One request per writer, ascending. The server appends what it holds
	// to st.wnGot, in step order.
	req := &st.wnReq
	req.page = page
	for i := 0; i < len(wns); {
		w := wns[i].Writer
		req.steps = req.steps[:0]
		for ; i < len(wns) && wns[i].Writer == w; i++ {
			req.steps = append(req.steps, wns[i].Step)
		}
		if w == c.ID {
			continue
		}
		c.P.Stats.DiffRequests++
		c.Call(stats.Data, w, 8+8*len(req.steps), req, pr.h.wnDiffReq)
	}
	// Notices naming ourselves (adopted from a home that had not applied
	// our diff yet) replay from the local archive without network traffic,
	// after the fetched ones.
	for _, wn := range wns {
		if wn.Writer != c.ID {
			continue
		}
		if d := st.pages[page].archived(wn.Step); d != nil {
			st.wnGot = append(st.wnGot, stepDiff{step: wn.Step, d: d})
		}
	}
	// Apply in step order for cross-step correctness (same-step writers
	// touch disjoint words in race-free programs).
	slices.SortStableFunc(st.wnGot, func(a, b stepDiff) int { return cmp.Compare(a.step, b.step) })
	for _, fd := range st.wnGot {
		pr.applyDiff(c, fd.d, stats.Data, false)
	}
	st.wnGot = st.wnGot[:0]
}

// handleWNDiffReq serves archived (or lazily created) outside diffs into
// the requester's buffer; the reply carries their size.
func (pr *AEC) handleWNDiffReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(*wnDiffReq)
	st, rq := pr.ps[m.To], pr.ps[m.From]
	p := &st.pages[req.page]
	p.reqSeen = true
	s.ChargeList(len(req.steps))
	bytes := 0
	for _, step := range req.steps {
		if st.dirtyOutside.Has(req.page) && p.twinStep == step {
			// The step's twin is still live — never eagerly diffed, or
			// written again after a write fault in a critical section
			// archived its first part: diff it now, on the writer's
			// critical path (the lazy fallback), over the archived part.
			pr.lazyOutsideDiff(s, st, req.page)
		}
		if d := p.archived(step); d != nil {
			rq.wnGot = append(rq.wnGot, stepDiff{step: step, d: d})
			bytes += d.EncodedBytes()
		}
	}
	pr.ctxs[m.From].Reply(s, bytes, nil)
}

// writeFault grants write permission for the current epoch, creating the
// twin that later diffing needs (§3.4's careful write-fault handling).
func (pr *AEC) writeFault(c *proto.Ctx, st *procState, page int, f *mem.Frame) {
	if st.inCS > 0 {
		// Writing inside a critical section. If the page carries
		// un-diffed outside modifications, their diff must be created
		// first and the old twin eliminated, so inside and outside
		// modifications stay separable.
		if st.dirtyOutside.Has(page) {
			pr.archiveEarly(c, st, page)
		}
		c.ChargeTwin(stats.Data)
		c.M.MakeTwin(page)
		st.dirtyInside = st.dirtyInside.Add(page)
	} else {
		// Writing outside any critical section.
		if st.dirtyOutside.Has(page) {
			if st.pages[page].twinStep != st.step {
				// Twin belongs to a previous step whose diff was
				// never archived: archive it before re-twinning.
				pr.makeOutsideDiff(c, st, page, stats.Data, false)
				c.ChargeTwin(stats.Data)
				c.M.MakeTwin(page)
				st.dirtyOutside = st.dirtyOutside.Add(page)
				st.pages[page].twinStep = st.step
			}
			// Same-step re-protection (e.g. after a speculative
			// acquire-time diff): keep accumulating on the twin.
		} else {
			c.ChargeTwin(stats.Data)
			c.M.MakeTwin(page)
			st.dirtyOutside = st.dirtyOutside.Add(page)
			st.pages[page].twinStep = st.step
		}
	}
	f.WriteEpoch = c.Epoch
}
