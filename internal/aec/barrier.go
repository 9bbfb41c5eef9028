package aec

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Barrier implements the step-based global barrier of §3.3: each arriving
// processor ships its per-step lists to the barrier manager, overlaps
// outside-diff creation with the wait, then exchanges diffs and write
// notices as instructed by the manager before departing into a new step.
func (pr *AEC) Barrier(c *proto.Ctx) {
	st := pr.ps[c.ID]
	if st.inCS > 0 {
		panic("aec: barrier reached while holding a lock")
	}
	pr.e.Tracer.Event(c.P.Clock, c.ID, trace.KindBarrierArrive, int64(st.step), 0)

	// Build the arrival lists in the arrival's scratch: the manager read
	// the last barrier's before anyone departed it.
	a := &st.arrive
	owned := proto.Reuse(a.owned, poisonOwned)
	pages := proto.Reuse(st.ownedPages, proto.ScratchPoison)
	elems := 0
	for lock, lc := range st.locks {
		if lc == nil || len(lc.myMerged) == 0 {
			continue
		}
		from := len(pages)
		for _, d := range lc.myMerged {
			pages = append(pages, d.Page)
		}
		owned = append(owned, ownedLock{lock: lock, count: lc.myCount, pages: pages[from:len(pages):len(pages)]})
		elems += 1 + len(lc.myMerged)
	}
	st.ownedPages = pages
	outside := proto.Reuse(a.outside, proto.ScratchPoison)
	for _, pg := range st.snapshot(st.dirtyOutside) {
		if st.pages[pg].twinStep == st.step {
			outside = append(outside, pg)
		}
	}
	if !st.writtenOutside.None() {
		for _, pg := range outside {
			st.writtenOutside = st.writtenOutside.Add(pg)
		}
		outside = st.writtenOutside.AppendBits(outside[:0])
	}
	newValid := st.newValid.AppendBits(proto.Reuse(a.newValid, proto.ScratchPoison))
	elems += len(outside) + len(newValid)
	c.P.Advance(pr.e.Params.ListCycles(elems), stats.Synch)

	*a = arriveMsg{proc: c.ID, owned: owned, outside: outside, newValid: newValid}
	st.batch.arr = append(st.batch.arr[:0], a)
	pr.relay.Arrive(c, 16+8*elems, &st.batch, pr.h.barArrive)

	// Overlap outside-diff creation with the wait for the instructions
	// (§3.3).
	instr := c.Await(stats.Synch, func() bool { return pr.barrierOverlapUnit(c, st) }).(*barInstr)

	// Home reassignments first, so faults after the barrier go to the
	// right place.
	for _, h := range instr.homes {
		st.pages[h.page].home = h.home
	}
	for _, pg := range instr.sharedPages {
		st.pages[pg].sharedHint = true
	}

	// Send merged CS diffs and write notices as instructed. The manager
	// names only pages this processor's arrival listed from myMerged, which
	// holds no nil diff and is not reset before finalizeStep. Each payload
	// is boxed once for all its targets: a payload is read-only once sent.
	for _, ds := range instr.diffSends {
		d := chainDiff(st.locks[ds.lock].myMerged, ds.page)
		var msg any = barDiffMsg{page: ds.page, lock: ds.lock, diff: d}
		for _, q := range ds.targets {
			pr.e.SendFrom(c.P, stats.Synch, q, kBarDiff, d.EncodedBytes(), msg, pr.h.barDiff)
		}
	}
	for _, ws := range instr.wnSends {
		var msg any = barWNMsg{wn: mem.WriteNotice{Page: ws.page, Writer: c.ID, Step: st.step}}
		for _, q := range ws.targets {
			pr.e.Tracer.Page(c.P.Clock, c.ID, trace.KindWriteNotice, ws.page, int64(q), 0)
			pr.e.SendFrom(c.P, stats.Synch, q, kBarWN, 16, msg, pr.h.barWN)
		}
	}

	// Wait until everything addressed to us has arrived, then report
	// ready and wait for global completion.
	c.P.WaitUntil(func() bool {
		return st.barDiffsGot >= instr.expDiffs && st.barWNsGot >= instr.expWNs
	}, stats.Synch)
	pr.relay.Sync(c)

	pr.finalizeStep(c, st)
}

// barrierOverlapUnit creates one eager outside diff; reports whether any
// work was done. Only pages some other processor has requested before are
// worth diffing eagerly; the rest stay lazy.
func (pr *AEC) barrierOverlapUnit(c *proto.Ctx, st *procState) bool {
	if pr.opt.lazyBarrierDiffs {
		return false
	}
	for _, pg := range st.snapshot(st.dirtyOutside) {
		if p := &st.pages[pg]; !p.reqSeen && !p.sharedHint {
			continue
		}
		pr.makeOutsideDiff(c, st, pg, stats.Synch, true)
		return true
	}
	return false
}

// makeOutsideDiff finalizes the outside diff of a dirty page for its twin
// step, archiving it for later write-notice fetches. The page's twin is
// released and the page write-protected (next write re-twins in the new
// step). Every caller finds pg in dirtyOutside, and a page is in
// dirtyOutside exactly while its frame holds the outside twin.
func (pr *AEC) makeOutsideDiff(c *proto.Ctx, st *procState, pg int, cat stats.Category, hidden bool) {
	f := c.M.Frame(pg)
	d := c.M.MakeTransientDiff(pg, f.Twin, pr.e.Params.WordBytes)
	pr.chargeDiffCreate(c, d, cat, hidden, false)
	// The speculative diff is read after the charge: a lazyOutsideDiff
	// serviced meanwhile may have merged and recycled it already, and
	// then it is gone from outsideDiff (ROADMAP item 1(a)).
	pr.archiveTwinStep(c.M, st, pg, f, d)
}

// archiveEarly makes the outside diff of a dirty page before the barrier
// would — a write fault in a critical section must separate the outside
// modifications from the inside ones, and a base fetch must save them
// before it overwrites the frame. A page twinned in the current step
// stays on the barrier's outside list through writtenOutside.
func (pr *AEC) archiveEarly(c *proto.Ctx, st *procState, pg int) {
	if st.pages[pg].twinStep == st.step {
		st.writtenOutside = st.writtenOutside.Add(pg)
	}
	pr.makeOutsideDiff(c, st, pg, stats.Data, false)
}

// lazyOutsideDiff is the service-context version used when a write-notice
// diff request arrives for a page that was never eagerly diffed; the cost
// lands on the servicing (writer) node. Its caller finds pg in
// dirtyOutside, so the frame holds the outside twin.
func (pr *AEC) lazyOutsideDiff(s *sim.Svc, st *procState, pg int) {
	ctx := pr.ctxs[st.id]
	f := ctx.M.Frame(pg)
	pp := &pr.e.Params
	d := ctx.M.MakeTransientDiff(pg, f.Twin, pp.WordBytes)
	cost := pp.DiffCycles(pr.pageSize)
	s.Charge(cost)
	s.ChargeMem(pr.pageSize)
	ctx.P.Stats.DiffCreateCycles += cost
	if d != nil {
		ctx.P.Stats.DiffsCreated++
		ctx.P.Stats.DiffBytesCreated += uint64(d.EncodedBytes())
	}
	pr.archiveTwinStep(ctx.M, st, pg, f, d)
}

// archiveTwinStep ends the page's twin step: the step's outside diff — d
// merged over the speculative one, if any — is archived in the run's
// region, both transient diffs go back to the processor's memory m that
// made them, and the page loses its twin and is write-protected (its next
// write re-twins).
func (pr *AEC) archiveTwinStep(m *mem.ProcMem, st *procState, pg int, f *mem.Frame, d *mem.Diff) {
	p := &st.pages[pg]
	spec := p.outsideDiff
	st.archiveOutside(pr, pg, p.twinStep, pr.merger.MergeIn(pr.s.Region(), spec, d))
	m.RecycleDiff(spec)
	m.RecycleDiff(d)
	p.outsideDiff, p.twinStep = nil, 0
	st.dirtyOutside.Remove(pg)
	m.DropTwin(pg)
	writeProtect(f)
}

// handleBarArrive collects arrival lists. At an interior node of the
// combining tree it aggregates its subtree's arrivals into one batched
// upstream message; at the manager (the tree root), once the last
// processor is in, it computes and distributes the exchange
// instructions. In the flat barrier every message lands directly at the
// manager, exactly as in the seed.
func (pr *AEC) handleBarArrive(s *sim.Svc, m *sim.Msg) {
	batch := m.Payload.(*arriveBatch)
	elems := 0
	for _, a := range batch.arr {
		elems += a.elems()
	}
	s.ChargeList(elems)
	heard, complete := pr.relay.Gather(m.To, len(batch.arr))
	if m.To == proto.BarMgr {
		for _, a := range batch.arr {
			pr.bar.arrivals[a.proc] = a
		}
		if complete {
			pr.computeBarrierInstructions(s)
		}
		return
	}
	st := pr.ps[m.To]
	if heard == len(batch.arr) {
		// The episode's first arrival here: the parent has copied the
		// last episode's subtree.
		st.combArr = proto.Reuse(st.combArr, nil)
	}
	st.combArr = append(st.combArr, batch.arr...)
	if !complete {
		return
	}
	size := 16 + 16*(len(st.combArr)-1)
	for _, a := range st.combArr {
		size += 8 * a.elems()
	}
	s.ChargeList(len(st.combArr))
	st.comb.arr = st.combArr
	pr.relay.Up(s, m.To, size, &st.comb, pr.h.barArrive)
}

// computeBarrierInstructions is the barrier manager's core: determine, for
// every processor, the diffs and write notices it must send (only to
// processors holding valid copies), pick per-page homes, and send each
// processor its instructions.
func (pr *AEC) computeBarrierInstructions(s *sim.Svc) {
	b := &pr.bar
	instr := b.instrs
	for i := range instr {
		in := &instr[i]
		*in = barInstr{
			diffSends:   proto.Reuse(in.diffSends, poisonDiffSend),
			wnSends:     proto.Reuse(in.wnSends, poisonWNSend),
			sharedPages: proto.Reuse(in.sharedPages, proto.ScratchPoison),
		}
	}
	b.targets = proto.Reuse(b.targets, proto.ScratchPoison)

	// Fold newly-valid pages into the copyset.
	for _, a := range b.arrivals {
		for _, pg := range a.newValid {
			b.copyset[pg] = b.copyset[pg].Add(a.proc)
		}
	}

	// Last owner per lock: highest acquire counter wins.
	for _, a := range b.arrivals {
		for _, o := range a.owned {
			if cur := &b.owner[o.lock]; cur.pages == nil || o.count > cur.count {
				*cur = ownedBy{proc: a.proc, count: o.count, pages: o.pages}
			}
		}
	}

	work := 0
	// CS diffs: last owner sends to every other valid-copy holder.
	for lock, rec := range b.owner {
		if rec.pages == nil {
			continue
		}
		b.owner[lock] = ownedBy{}
		for _, pg := range rec.pages {
			b.touched = b.touched.Add(pg)
			b.csOwner[pg] = rec.proc
			targets := b.appendTargets(pg, rec.proc)
			if len(targets) == 0 {
				continue
			}
			instr[rec.proc].diffSends = append(instr[rec.proc].diffSends,
				sendDiffInstr{page: pg, lock: lock, targets: targets})
			for _, q := range targets {
				instr[q].expDiffs++
			}
			work += len(targets)
		}
	}

	// Write notices: each outside writer notifies valid-copy holders.
	for pnum, a := range b.arrivals {
		for _, pg := range a.outside {
			b.touched = b.touched.Add(pg)
			b.written = b.written.Add(pg)
			targets := b.appendTargets(pg, pnum)
			if len(targets) == 0 {
				continue
			}
			instr[pnum].wnSends = append(instr[pnum].wnSends,
				sendWNInstr{page: pg, targets: targets})
			instr[pnum].sharedPages = append(instr[pnum].sharedPages, pg)
			for _, q := range targets {
				instr[q].expWNs++
			}
			work += len(targets)
		}
	}

	// A page written outside a critical section ends the barrier valid
	// at exactly its writers: every other holder got a write notice. A
	// page touched only through a lock keeps its copyset.
	b.written.ForEach(func(pg int) { clear(b.copyset[pg]) })
	for _, a := range b.arrivals {
		for _, pg := range a.outside {
			b.copyset[pg] = b.copyset[pg].Add(a.proc)
		}
	}

	// Home reassignment: a processor guaranteed current after this
	// barrier. Preference: the lowest-id outside writer, else the CS
	// owner — a page is touched only through one of the two.
	homes := proto.Reuse(b.homes, poisonHome)
	b.touched.ForEach(func(pg int) {
		home := b.csOwner[pg]
		if b.written.Has(pg) {
			home = b.copyset[pg].Min()
		}
		homes = append(homes, homeAssign{page: pg, home: home})
	})
	b.homes = homes
	clear(b.touched)
	clear(b.written)
	s.ChargeList(work + len(homes))

	// Reset the per-lock diff chains: the barrier makes everyone
	// coherent, so lock histories restart (affinity history persists).
	// The step sequence advances with the reset so that in-flight release
	// messages from the finished step are recognized as stale.
	b.seq++
	pr.ResetChains(s)

	// Distribute instructions: the manager serves itself, then each of
	// its tree children — a plain per-processor message for leaf
	// children (the flat barrier's exact fan-out, in ascending order) and
	// one batch per interior child, split recursively on the way down.
	for q := 0; q < pr.nprocs; q++ {
		instr[q].homes = homes
	}
	pr.sendInstrSubtree(s, proto.BarMgr, instr[:1])
	pr.scatterInstr(s, proto.BarMgr, instr)
	// Nothing reads the arrivals after this; the next episode's land here.
	clear(b.arrivals)
}

// appendTargets appends to the flat targets buffer the holders of a valid
// copy of pg other than from, and returns them as a slice of it capped so
// that the next page's cannot reach them.
func (b *barrierState) appendTargets(pg, from int) []int {
	start := len(b.targets)
	b.copyset[pg].ForEach(func(q int) {
		if q != from {
			b.targets = append(b.targets, q)
		}
	})
	return b.targets[start:len(b.targets):len(b.targets)]
}

// scatterInstr sends each tree child of node its subtree's slice of ins,
// the instructions of node's own (contiguous) subtree.
func (pr *AEC) scatterInstr(s *sim.Svc, node int, ins []barInstr) {
	for _, c := range pr.relay.Children(node) {
		lo := c - node
		pr.sendInstrSubtree(s, c, ins[lo:lo+pr.relay.SubtreeSize(c)])
	}
}

// sendInstrSubtree ships the instructions of the contiguous subtree
// rooted at c: a plain kBarInstr when the subtree is a single processor,
// a kBarInstrBatch for an interior representative to split further.
func (pr *AEC) sendInstrSubtree(s *sim.Svc, c int, ins []barInstr) {
	if len(ins) == 1 {
		in := &ins[0]
		size := 16 + 8*(len(in.diffSends)+len(in.wnSends)+len(in.homes))
		s.Send(c, kBarInstr, size, in, pr.h.barInstr)
		return
	}
	size := 16 * (len(ins) - 1)
	for i := range ins {
		in := &ins[i]
		size += 16 + 8*(len(in.diffSends)+len(in.wnSends)+len(in.homes))
	}
	batch := &pr.bar.batches[c]
	batch.ins = ins
	s.Send(c, kBarInstrBatch, size, batch, pr.h.barInstrBatch)
}

// handleBarInstrBatch lands a subtree's instructions at its
// representative: forward each child's slice first, then take our own.
func (pr *AEC) handleBarInstrBatch(s *sim.Svc, m *sim.Msg) {
	batch := m.Payload.(*instrBatch)
	s.ChargeList(len(batch.ins))
	pr.scatterInstr(s, m.To, batch.ins)
	in := &batch.ins[0]
	s.ChargeList(len(in.diffSends) + len(in.wnSends))
	pr.ctxs[m.To].Land(s, in)
}

// handleBarInstr lands the manager's instructions at a processor.
func (pr *AEC) handleBarInstr(s *sim.Svc, m *sim.Msg) {
	in := m.Payload.(*barInstr)
	s.ChargeList(len(in.diffSends) + len(in.wnSends))
	pr.ctxs[m.To].Land(s, in)
}

// handleBarDiff applies a merged CS diff pushed during the barrier
// exchange. The receiver is blocked at the barrier, so the application
// cost is overlapped (hidden) by construction.
func (pr *AEC) handleBarDiff(s *sim.Svc, m *sim.Msg) {
	bd := m.Payload.(barDiffMsg)
	st := pr.ps[m.To]
	ctx := pr.ctxs[m.To]
	if ctx.M.Frame(bd.page).Valid {
		ctx.ServeDiff(s, bd.diff, true)
	}
	st.barDiffsGot++
	s.Wake(s.P)
}

// handleBarWN invalidates a page on receipt of a write notice.
func (pr *AEC) handleBarWN(s *sim.Svc, m *sim.Msg) {
	w := m.Payload.(barWNMsg)
	st := pr.ps[m.To]
	ctx := pr.ctxs[m.To]
	s.ChargeList(1)
	ctx.P.Stats.WriteNoticesReceived++
	f := ctx.M.Peek(w.wn.Page)
	if f.Valid {
		ctx.M.Invalidate(w.wn.Page)
		ctx.P.Stats.Invalidations++
	}
	p := &st.pages[w.wn.Page]
	p.reason = invalWN
	p.pendingWN = append(p.pendingWN, w.wn)
	st.barWNsGot++
	s.Wake(s.P)
}

// finalizeStep moves a processor into the next barrier step.
func (pr *AEC) finalizeStep(c *proto.Ctx, st *procState) {
	pr.e.Tracer.Event(c.P.Clock, c.ID, trace.KindBarrierDepart, int64(st.step), 0)
	// Re-protect pages that a release left writable: the first write of
	// the new step must trap so the previous step's accumulated diff is
	// archived, the twin renewed, and the page reported in the next
	// barrier's outside list. Without this, writes go silent across the
	// step boundary and their write notices are never generated.
	for _, pg := range st.snapshot(st.dirtyOutside) {
		if f := c.M.Peek(pg); f.Data != nil {
			writeProtect(f)
		}
	}
	st.step++
	clear(st.newValid)
	clear(st.writtenOutside)
	st.barDiffsGot = 0
	st.barWNsGot = 0
	for _, lc := range st.locks {
		if lc == nil {
			continue
		}
		// A push from the step we are entering is kept.
		if buf := lc.recv; buf != nil && buf.step < st.step {
			c.P.Stats.UselessUpdates += uint64(len(buf.diffs))
			lc.recv = nil
		}
		// The chains restart. A chain may be shared (an inherited chain
		// is a myMerged or a push's) and lives on in whoever holds it.
		lc.pages, lc.us, lc.inherited, lc.myMerged = nil, nil, nil, nil
	}
	c.Epoch++
}
