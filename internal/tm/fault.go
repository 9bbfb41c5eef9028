package tm

import (
	"sort"

	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Fault implements the TreadMarks access miss: fetch a base copy if the
// page was never resident, then fetch and apply the diffs named by the
// write notices, in interval order — all of it on the faulting processor's
// critical path, with diff creation on the writers' critical paths.
func (pr *TM) Fault(c *proto.Ctx, page int, write bool) {
	st := pr.ps[c.ID]
	f := c.M.Frame(page)

	if !f.Valid {
		// Any undiffed local interval must be materialized before remote
		// diffs land in the page, or its lazy diff would capture other
		// writers' values stamped with an old interval — a regression
		// when applied elsewhere out of order. (Real TreadMarks creates
		// pending diffs before applying incoming ones for this reason.)
		if st.undiffed[page] != nil {
			pr.forceDiff(c, st, page, stats.Data)
		}
		if !f.EverValid {
			// A base copy from the page's statically assigned home is of
			// unknown vintage: apply the full write notice history for
			// the page.
			if home := pr.s.InitHome(page); home != c.ID {
				pr.FetchPage(c, page, home)
			}
			pr.fetchAndApplyDiffs(c, st, page, st.history[page])
		} else {
			pr.fetchAndApplyDiffs(c, st, page, st.pendingWN[page])
		}
		delete(st.pendingWN, page)
		f.Valid = true
		f.EverValid = true
	}

	if write {
		// Re-twinning: any undiffed interval for this page must be
		// diffed first so its snapshot survives.
		if st.undiffed[page] != nil {
			pr.forceDiff(c, st, page, stats.Data)
		}
		c.ChargeTwin(stats.Data)
		c.M.MakeTwin(page)
		st.dirty[page] = true
		f.WriteEpoch = c.Epoch
	}
}

// fetchAndApplyDiffs fetches the diffs for the given write notices from
// their writers and applies them in interval order.
func (pr *TM) fetchAndApplyDiffs(c *proto.Ctx, st *tmProc, page int, wns []wnRef) {
	if len(wns) == 0 {
		return
	}
	// Group by writer, dedupe sequences.
	byWriter := map[int]map[int]bool{}
	for _, wn := range wns {
		if wn.proc == c.ID {
			continue
		}
		if byWriter[wn.proc] == nil {
			byWriter[wn.proc] = map[int]bool{}
		}
		byWriter[wn.proc][wn.seq] = true
	}
	writers := make([]int, 0, len(byWriter))
	for w := range byWriter {
		writers = append(writers, w)
	}
	sort.Ints(writers)

	var all []ivalDiff
	for _, w := range writers {
		seqs := make([]int, 0, len(byWriter[w]))
		for s := range byWriter[w] {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		c.P.Stats.DiffRequests++
		diffs := c.Call(stats.Data, w, kDiffReq, 8+8*len(seqs),
			diffReq{page: page, seqs: seqs}, pr.handleDiffReq).([]ivalDiff)
		all = append(all, diffs...)
	}
	// Apply in happens-before order (vector clock partial order).
	// Same-chain intervals are totally ordered; truly concurrent ones
	// modify disjoint words in race-free programs, so ties are broken
	// deterministically.
	all = pr.topoSc.order(all)
	pp := &pr.e.Params
	for _, fd := range all {
		if fd.d == nil {
			continue
		}
		cost := pp.DiffCycles(fd.d.DataBytes())
		cost += c.P.MemBus.Cost(c.P.Clock, pp.Words(fd.d.DataBytes()))
		pr.applyDiff(c, fd, cost, stats.Data)
	}
}

// applyDiff charges c cost cycles for applying one fetched or piggybacked
// diff, counts and traces the application, and patches the frame. Counter
// and event live here together so that neither path can emit one without
// the other.
func (pr *TM) applyDiff(c *proto.Ctx, fd ivalDiff, cost uint64, cat stats.Category) {
	c.P.Stats.DiffApplyCycles += cost
	c.P.Stats.DiffsApplied++
	c.P.Stats.DiffBytesApplied += uint64(fd.d.DataBytes())
	c.P.Advance(cost, cat)
	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, fd.d.Page, fd.d.ID, int64(fd.d.DataBytes()), int64(fd.proc))
	c.PatchDiff(fd.d)
}

// handleDiffReq serves (and lazily creates) interval diffs at the writer.
func (pr *TM) handleDiffReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(diffReq)
	st := pr.ps[m.To]
	s.ChargeList(len(req.seqs))
	out := make([]ivalDiff, 0, len(req.seqs))
	bytes := 0
	for _, seq := range req.seqs {
		rec := st.ivals[seq]
		if rec == nil {
			continue
		}
		if d := pr.svcDiff(s, st, rec, req.page); d != nil {
			out = append(out, ivalDiff{proc: rec.proc, seq: rec.seq, vc: rec.vc, d: d})
			bytes += d.EncodedBytes() + 4*pr.nprocs
		}
	}
	pr.ctxs[m.From].Reply(s, kDiffRep, bytes, out)
}
