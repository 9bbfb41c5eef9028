package tm

import (
	"cmp"
	"slices"

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
		if st.pages[page].undiffed != nil {
			pr.forceDiff(c, st, page, stats.Data)
		}
		if !f.EverValid {
			// A base copy from the page's statically assigned home is of
			// unknown vintage: apply the full write notice history for
			// the page.
			if home := pr.s.InitHome(page); home != c.ID {
				pr.FetchPage(c, page, home)
			}
			pr.fetchHistory(c, st, page)
		} else {
			pr.fetchPending(c, st, page)
		}
		pr.applyFetched(c, st)
		f.Valid = true
		f.EverValid = true
	}

	// A page twinned in the open interval keeps its twin: an acquire bumps
	// the epoch without closing the interval, and a second snapshot would
	// drop the writes made before it from the interval's diff.
	if write && f.Twin == nil {
		// Re-twinning: any undiffed interval for this page must be
		// diffed first so its snapshot survives.
		if st.pages[page].undiffed != nil {
			pr.forceDiff(c, st, page, stats.Data)
		}
		c.ChargeTwin(stats.Data)
		c.M.MakeTwin(page)
		st.dirty = append(st.dirty, page)
	}
	if write {
		f.WriteEpoch = c.Epoch
	}
}

// fetchHistory fetches every diff of a page this processor's clock covers:
// each other writer's row of the log, cut at vc[writer]. That is exactly
// the set of notices the processor has received for the page (DESIGN.md
// has the argument), so nothing per-processor needs to remember them.
//
// The log grows while the fault is parked in a call — a writer closing its
// first interval on the page inserts a row and shifts the rest — so the
// walk goes by writer id and searches again after each call. A row that
// appears mid-fault holds only seqs above vc (no notice reaches a faulting
// processor) and is skipped by the prefix rule.
func (pr *TM) fetchHistory(c *proto.Ctx, st *tmProc, page int) {
	for w := 0; ; w++ {
		rows := pr.log[page]
		i, _ := rowOf(rows, w)
		if i == len(rows) {
			return
		}
		w = rows[i].writer
		if seqs := rows[i].seenBy(st.vc); w != c.ID && len(seqs) > 0 {
			pr.fetchFrom(c, st, page, w, seqs)
		}
	}
}

// fetchPending fetches the diffs named by the notices received since the
// page was last valid here, writer by writer, and consumes the notices.
func (pr *TM) fetchPending(c *proto.Ctx, st *tmProc, page int) {
	pg := &st.pages[page]
	slices.SortFunc(pg.pending, func(a, b wnRef) int {
		return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.seq, b.seq))
	})
	pend := slices.Compact(pg.pending)
	for i := 0; i < len(pend); {
		w := pend[i].proc
		st.seqs = st.seqs[:0]
		for ; i < len(pend) && pend[i].proc == w; i++ {
			st.seqs = append(st.seqs, pend[i].seq)
		}
		pr.fetchFrom(c, st, page, w, st.seqs)
	}
	pg.pending = pend[:0]
}

// fetchFrom asks one writer for its diffs of the page in the given
// intervals and parks until they are in st.fetched. One call per writer,
// in sequence: ROADMAP item 3(b) replaces the callers' loops with a
// fan-out.
func (pr *TM) fetchFrom(c *proto.Ctx, st *tmProc, page, writer int, seqs []int) {
	c.P.Stats.DiffRequests++
	st.req = diffReq{page: page, seqs: seqs}
	c.Call(stats.Data, writer, kDiffReq, 8+8*len(seqs), &st.req, pr.h.diffReq)
}

// applyFetched applies the fault's fetched diffs in happens-before order
// (vector clock partial order). Same-chain intervals are totally ordered;
// truly concurrent ones modify disjoint words in race-free programs, so
// ties are broken deterministically.
func (pr *TM) applyFetched(c *proto.Ctx, st *tmProc) {
	pp := &pr.e.Params
	for _, fd := range pr.topoSc.order(st.fetched) {
		cost := pp.DiffCycles(fd.d.DataBytes())
		cost += c.P.MemBus.Cost(c.P.Clock, pp.Words(fd.d.DataBytes()))
		pr.applyDiff(c, fd, cost, stats.Data)
	}
	st.fetched = st.fetched[:0]
}

// applyDiff charges c cost cycles for applying one fetched or piggybacked
// diff, counts and traces the application, and patches the frame. Counter
// and event live here together so that neither path can emit one without
// the other.
func (pr *TM) applyDiff(c *proto.Ctx, fd ivalDiff, cost uint64, cat stats.Category) {
	c.P.Stats.DiffApplyCycles += cost
	c.P.Stats.DiffsApplied++
	c.P.Advance(cost, cat)
	pr.e.Tracer.Diff(c.P.Clock, c.ID, trace.KindDiffApply, fd.d.Page, fd.d.ID, int64(fd.d.DataBytes()), int64(fd.proc))
	c.PatchDiff(fd.d)
}

// handleDiffReq serves (and lazily creates) interval diffs at the writer,
// straight into the requester's buffer: the reply carries their size, not
// a copy of the list.
func (pr *TM) handleDiffReq(s *sim.Svc, m *sim.Msg) {
	req := m.Payload.(*diffReq)
	st, rq := pr.ps[m.To], pr.ps[m.From]
	s.ChargeList(len(req.seqs))
	bytes := 0
	for _, seq := range req.seqs {
		rec := pr.closed(m.To, seq, m.From, req.page)
		if d := pr.svcDiff(s, st, rec, req.page); d != nil {
			rq.fetched = append(rq.fetched, ivalDiff{proc: rec.proc, seq: rec.seq, vc: rec.vc, d: d})
			bytes += d.EncodedBytes() + 4*pr.nprocs
		}
	}
	pr.ctxs[m.From].Reply(s, kDiffRep, bytes, nil)
}
