// Package tm implements the TreadMarks lazy release consistency protocol
// (Amza et al., IEEE Computer 1996), the baseline AEC is compared against
// in Figures 5 and 6 of the paper. TreadMarks:
//
//   - divides each processor's execution into intervals delimited by
//     synchronization operations, stamped with vector clocks;
//   - propagates consistency information (write notices) lazily, at the
//     next lock acquire or barrier, invalidating the named pages;
//   - creates diffs lazily, when a faulting processor requests them — so
//     diff creation sits on the critical path of both the generator and
//     the requester, the overhead AEC's eager overlapped diffing removes.
//
// Like every protocol here, TM emits lock, barrier, fault and diff trace
// events through the engine's trace.Emitter (see
// aecdsm/internal/trace and docs/OBSERVABILITY.md), which makes the
// lazy-diff critical-path costs directly comparable with AEC's in one
// merged Perfetto timeline.
package tm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"aecdsm/internal/mem"
	"aecdsm/internal/pool"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Message kinds.
const (
	kAcqReq = iota
	kGrantReq
	kGrant
	kRel
	kDiffReq
	kDiffRep
	kPageReq
	kPageRep
	kBarArrive
	kBarRelease
	kRepLog // lock-manager journal record -> backup node (proto.LockMgr)
)

// wnRef names one interval's modification of one page.
type wnRef struct {
	proc, seq, page int
}

// interval is one closed interval of a processor: the unit of lazy diff
// propagation. vc is the creator's vector clock at the close, which orders
// intervals by happens-before when applying diffs.
type interval struct {
	proc, seq int
	vc        []int
	pages     []int       // ascending
	twins     [][]byte    // parallel to pages: the twin while the page is undiffed
	diffs     []*mem.Diff // parallel to pages: the lazily created diff
}

// slot returns the index of pg in the interval's parallel slices. Callers
// name a page through the interval's own notices, so a page it did not
// write is a protocol bug.
func (rec *interval) slot(pg int) int {
	i, ok := slices.BinarySearch(rec.pages, pg)
	if !ok {
		panic(fmt.Sprintf("tm: interval #%d of proc %d did not write page %d", rec.seq, rec.proc, pg))
	}
	return i
}

// tmPage is one processor's protocol state for one page.
type tmPage struct {
	undiffed *interval // own latest interval still holding the page's twin
	// seen is the processor's clock when the page was last made valid
	// here, shared and never written; nil is the zero clock. The notices
	// a fault fetches are the log's between seen and the clock
	// (DESIGN.md, "TreadMarks' write notices").
	seen []int
}

// wnRow is one writer's line in the machine-wide write-notice log of a
// page: the seqs of its intervals that modified the page, ascending.
// seqs only ever grows by append, so a prefix of it may be aliased
// across a blocking call; the row slice holding it may not (a writer
// closing its first interval on the page inserts a row).
type wnRow struct {
	writer int
	seqs   []int
}

// tmProc is the per-processor TreadMarks state.
type tmProc struct {
	id int
	// vc[p] = highest interval of processor p seen. Published: messages,
	// intervals and other processors share it, so it is replaced (by
	// closeInterval's clone or joinVC), never written in place.
	vc []int

	dirty []int       // pages written in the current interval, deduped at its close
	ivals []*interval // own closed intervals; seq s is ivals[s-1]
	pages []tmPage    // by page number

	// Fault-path scratch. A processor is inside at most one fault, and no
	// write notice reaches it there (it has neither arrived at a barrier
	// nor asked for a lock), so one of each is enough.
	req     diffReq    // the request in flight, sent by pointer
	fetched []ivalDiff // filled by the serving handlers, then ordered and applied
	fresh   []wnRef    // Lazy Hybrid: a grant's fresh notices, sorted by page

	// The lock hand-off of this processor's acquire, each message sent by
	// pointer: its request to the manager (acq, whose clock the manager
	// grants against), the manager's request to the last releaser to
	// build the grant (build) and the grant (granted). A processor has at
	// most one acquire outstanding and consumes its grant inside Acquire,
	// so the next acquire finds all three read.
	acq     acqReq
	build   grantReq
	granted grantMsg
	grant   *grantMsg // the grant once it has landed, nil before

	barOut     bool
	lastBarSeq int // own interval seq at the last barrier

	// Barrier fan-in state: the merged clock and concatenated notices of
	// this node's combining-tree subtree (at the manager, the machine),
	// buffered until the subtree is complete. At an interior node they are
	// scratch, like the processor's own arrival (arrive, with its notice
	// list) and the message that carries the subtree upstream (up): the
	// parent's handler copies what they hold before the barrier can
	// complete, so the next episode reuses them. At the manager they are
	// fresh per barrier: the release publishes them to every processor.
	combVC  []int
	combWNs []wnRef
	arrive  barArrive
	up      barArrive
}

type grantMsg struct {
	lock  int
	wns   []wnRef
	vc    []int
	piggy []ivalDiff // Lazy Hybrid: releaser's own diffs, by wn order; its array is kept across grants
}

type acqReq struct {
	lock int
	vc   []int
	from int
}

type grantReq struct { // manager -> last releaser: build the grant
	lock int
	to   int
	vc   []int
}

// grantTo resets to's grant message for a grant of lock carrying wns and
// vc, keeping its piggyback list's array.
func (pr *TM) grantTo(to, lock int, wns []wnRef, vc []int) *grantMsg {
	g := &pr.ps[to].granted
	*g = grantMsg{lock: lock, wns: wns, vc: vc, piggy: proto.Reuse(g.piggy, ivalDiff{})}
	return g
}

type relMsg struct{ lock int }

// diffReq asks one writer for its diffs of a page. It lives on the
// requester's tmProc and travels by pointer; the server appends what it
// serves to the requester's fetched buffer.
type diffReq struct {
	page int
	seqs []int
}

// ivalDiff is one fetched diff and the interval it belongs to, whose
// writer, seq and clock order it in happens-before order.
type ivalDiff struct {
	*interval
	d *mem.Diff
}

// before reports whether interval a happens-before interval b: b's vector
// clock already covers a. Distinct intervals can never mutually cover each
// other, so this is a strict partial order. It is the definition the diff
// order answers to: the reference loop in tm_test.go applies it to every
// pair, topoScratch.order to the heads of the per-writer chains.
func (a ivalDiff) before(b ivalDiff) bool {
	if a.proc == b.proc {
		return a.seq < b.seq
	}
	return b.vc[a.proc] >= a.seq
}

// chain is one writer's fetched diffs of the page: a run of the (sorted)
// input, of which only the head — the first not yet emitted — can be the
// next interval applied. The head's seq and clock are kept here so that an
// emission touches the chain records and nothing else.
type chain struct {
	proc int
	seq  int   // head's seq; noSeq once the chain is spent
	vc   []int // head's clock
	// blocked counts the other chains whose head precedes this one's
	// (vc[their proc] >= their seq). The head is ready at zero; a spent
	// chain stays at zero and is never looked at again.
	blocked   int32
	next, end int32 // the unemitted run in[next:end]
}

// noSeq is the head seq of a spent chain: no clock reaches it, so the
// chain blocks nobody.
const noSeq = math.MaxInt

// topoScratch holds the reusable working set of the happens-before sort:
// the per-writer chain records, the heap of ready chains and the output
// buffer. One instance lives on each TM protocol (the engine core is
// single-threaded, and the sort never yields mid-run, so reuse across page
// faults is safe); the zero value is ready to use.
type topoScratch struct {
	chains []chain
	ready  []int32 // binary heap of ready chains, keyed (head seq, proc)
	sorted []ivalDiff
}

// topoOrder sorts fetched diffs into a happens-before-consistent order:
// repeatedly emit an interval no remaining interval precedes, breaking
// ties by (seq, proc) and then input position deterministically. That
// definition is the recompute-readiness loop topoOrderRef in tm_test.go,
// O(n³) in the fetched diff count and kept as the property-test oracle;
// this emits the identical sequence as a merge of the k per-writer chains
// in O(n·k + n log k) — DESIGN.md, "TreadMarks' write notices", has the
// argument.
func topoOrder(in []ivalDiff) []ivalDiff {
	var sc topoScratch
	return sc.order(in)
}

// less orders ready chains by their heads, exactly as the reference loop's
// first-wins minimum scan: by seq, then proc. Two heads never share a
// proc, and within a chain the input position has already decided.
func (sc *topoScratch) less(a, b int32) bool {
	ca, cb := &sc.chains[a], &sc.chains[b]
	if ca.seq != cb.seq {
		return ca.seq < cb.seq
	}
	return ca.proc < cb.proc
}

func (sc *topoScratch) push(v int32) {
	sc.ready = append(sc.ready, v)
	i := len(sc.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !sc.less(sc.ready[i], sc.ready[p]) {
			break
		}
		sc.ready[i], sc.ready[p] = sc.ready[p], sc.ready[i]
		i = p
	}
}

func (sc *topoScratch) pop() int32 {
	h := sc.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.ready = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && sc.less(h[r], h[l]) {
			c = r
		}
		if !sc.less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// group cuts in into per-writer chains, sorting it first unless it already
// is in (proc, seq) order — which is how both fetch paths deliver it. The
// sort is stable, so entries naming one interval twice keep their input
// order, the reference loop's last tie-break.
func (sc *topoScratch) group(in []ivalDiff) []chain {
	chains := sc.chains[:0]
	for i := range in {
		d := &in[i]
		if k := len(chains) - 1; k >= 0 && chains[k].proc == d.proc && in[i-1].seq <= d.seq {
			chains[k].end++
		} else if k < 0 || chains[k].proc < d.proc {
			chains = append(chains, chain{proc: d.proc, seq: d.seq, vc: d.vc, next: int32(i), end: int32(i + 1)})
		} else {
			slices.SortStableFunc(in, func(a, b ivalDiff) int {
				return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.seq, b.seq))
			})
			return sc.group(in)
		}
	}
	sc.chains = chains
	return chains
}

// blockers counts the chains other than c's own whose head precedes c's.
func blockers(chains []chain, c *chain) int32 {
	var n int32
	vc := c.vc
	for i := range chains {
		if d := &chains[i]; vc[d.proc] >= d.seq && d != c {
			n++
		}
	}
	return n
}

func (sc *topoScratch) order(in []ivalDiff) []ivalDiff {
	n := len(in)
	if n <= 1 {
		return in
	}
	chains := sc.group(in)
	sc.ready = sc.ready[:0]
	waiting := 0 // chains with a blocked head
	for i := range chains {
		c := &chains[i]
		if c.blocked = blockers(chains, c); c.blocked == 0 {
			sc.push(int32(i))
		} else {
			waiting++
		}
	}
	if cap(sc.sorted) < n {
		sc.sorted = make([]ivalDiff, 0, n)
	}
	out := sc.sorted[:0]
	for range n {
		if len(sc.ready) == 0 {
			panic(sc.cycle(in))
		}
		ei := sc.pop()
		e := &chains[ei]
		out = append(out, in[e.next])
		e.next++
		proc, was, now := e.proc, e.seq, noSeq
		if e.next < e.end {
			now, e.vc = in[e.next].seq, in[e.next].vc
		}
		e.seq = now
		// A head's readiness changes only when a chain that blocked it
		// moves on: release the heads e's old head preceded and its new
		// one does not (none, when the new head names the same interval
		// again). Ready and spent chains are blocked by nothing.
		if waiting > 0 {
			for i := range chains {
				c := &chains[i]
				if c.blocked == 0 {
					continue
				}
				if v := c.vc[proc]; v >= was && v < now {
					if c.blocked--; c.blocked == 0 {
						waiting--
						sc.push(int32(i))
					}
				}
			}
		}
		if now != noSeq {
			if e.blocked = blockers(chains, e); e.blocked == 0 {
				sc.push(ei)
			} else {
				waiting++
			}
		}
	}
	// Permute the caller's slice in place via the scratch buffer and hand
	// it back: callers keep the result across engine yield points, so it
	// must not alias scratch another fault could overwrite.
	copy(in, out)
	sc.sorted = out[:0]
	return in
}

// cycle describes a sort that has stalled with every remaining head
// preceded by another: vector clocks that cover each other, which no
// execution produces — some interval carries a clock that is not its
// creator's.
func (sc *topoScratch) cycle(in []ivalDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tm: the write notices of page %d cannot be ordered; these intervals precede each other:", in[0].d.Page)
	for i := range sc.chains {
		if c := &sc.chains[i]; c.seq != noSeq {
			fmt.Fprintf(&b, " #%d of proc %d (clock %v)", c.seq, c.proc, c.vc)
		}
	}
	return b.String()
}

// barArrive is a barrier arrival, sent by pointer to its sender's scratch
// (tmProc.arrive or tmProc.up) and read, by copy, only by the handler it
// is sent to.
type barArrive struct {
	proc  int
	vc    []int
	wns   []wnRef // summaries of intervals created since the last barrier
	count int     // processors represented (1 from a processor, more from a combining node)
}

// poisonWN is what a reused notice list is filled with under
// mem.Poisoned; a reused piggyback list is filled with nil
// intervals, which a stale reader dereferences.
var poisonWN = wnRef{proto.ScratchPoison, proto.ScratchPoison, proto.ScratchPoison}

type barRelease struct {
	wns []wnRef
	vc  []int
}

// TM is the protocol instance.
type TM struct {
	// hybrid enables the Lazy Hybrid variation (Dwarkadas et al.),
	// cited by the AEC paper in §6: the last releaser piggybacks the
	// diffs of its own modifications on the lock grant message, so an
	// acquirer that caches the pages needs no separate diff fetch.
	hybrid bool

	// LockMgr is the shared lock-manager service. Its predictors are
	// passive here: TreadMarks never pushes updates, but the paper's §5.1
	// robustness study measures LAP accuracy under TreadMarks to show the
	// technique is protocol-independent, so the managers record the same
	// grant stream AEC's would see.
	proto.LockMgr
	// PageHome serves base page copies, with no delta: a TreadMarks home
	// is static and its copy carries no consistency information.
	proto.PageHome

	e    *sim.Engine
	s    *mem.Space
	ctxs []*proto.Ctx
	ps   []*tmProc

	// log[page] is every write notice of the page, stored once for the
	// machine: one row per writer, ascending by writer, appended as
	// intervals close. A processor's view of it is the prefix its vector
	// clock covers (DESIGN.md, "TreadMarks' write notices"), so nobody
	// keeps a copy. Intervals are never collected; neither is the log.
	log [][]wnRow

	// h is the message handlers, bound once in Attach: a method value
	// written at a send site is a fresh closure per message.
	h struct {
		acqReq, grantReq, grant, rel   sim.Handler
		diffReq, barArrive, barRelease sim.Handler
	}

	// noted, set by tests only, sees every fresh write notice as it is
	// received, and whether Lazy Hybrid applied its diff directly.
	noted func(proc int, wn wnRef, direct bool)

	relay   proto.Relay // barrier fan-in/fan-out
	barSeen []bool      // manager's duplicate-arrival guard

	nprocs   int
	pageSize int

	// topoSc is the happens-before sort's reusable working set; safe to
	// share across page faults because the engine core is single-threaded
	// and the sort never yields.
	topoSc topoScratch

	// wns pools grant write-notice slices. A slice is built by the
	// releaser in collectWNs, rides exactly one grant, and is consumed
	// by value in the acquirer's applyWNs — nothing retains it, so the
	// acquirer recycles it at the end of Acquire. Entries are pointer-
	// free (wnRef is three ints), so truncation is a full reset.
	wns pool.Slices[wnRef]
}

// New builds a TreadMarks protocol instance.
func New() *TM { return &TM{} }

// NewLazyHybrid builds the Lazy Hybrid variation: grants piggyback the
// releaser's own diffs for cached pages.
func NewLazyHybrid() *TM { return &TM{hybrid: true} }

// Name implements proto.Protocol.
func (pr *TM) Name() string {
	if pr.hybrid {
		return "TM-LH"
	}
	return "TM"
}

// Attach implements proto.Protocol.
func (pr *TM) Attach(e *sim.Engine, s *mem.Space, ctxs []*proto.Ctx) {
	pr.e = e
	pr.s = s
	pr.ctxs = ctxs
	pr.nprocs = len(ctxs)
	pr.relay.InitRelay(e)
	pr.pageSize = s.PageSize()
	pr.ps = make([]*tmProc, pr.nprocs)
	for i := range pr.ps {
		pr.ps[i] = &tmProc{
			id:    i,
			vc:    make([]int, pr.nprocs),
			pages: make([]tmPage, s.Pages()),
		}
	}
	pr.log = make([][]wnRow, s.Pages())
	pr.h.acqReq, pr.h.grantReq, pr.h.grant, pr.h.rel = pr.handleAcqReq, pr.handleGrantReq, pr.handleGrant, pr.handleRel
	pr.h.diffReq, pr.h.barArrive, pr.h.barRelease = pr.handleDiffReq, pr.handleBarArrive, pr.handleBarRelease
	pr.InitLocks(e, 2, kRepLog, pr)
	pr.InitPageHome(ctxs, kPageReq, kPageRep, nil)
	pr.barSeen = make([]bool, pr.nprocs)
}

// Notice implements proto.Protocol: TreadMarks has no virtual queues.
func (pr *TM) Notice(c *proto.Ctx, lock int) {}

// closeInterval ends the current interval if it modified anything,
// recording the twins for lazy diffing and the interval's write notices in
// the machine's log.
func (pr *TM) closeInterval(c *proto.Ctx, st *tmProc) {
	if len(st.dirty) == 0 {
		return
	}
	// The one clock copy per interval: st.vc may be shared with messages,
	// intervals and other processors, so it is replaced, never written.
	// An interval is never collected, so its clock and page list live as
	// long as the run, and are kept in its region.
	region := pr.s.Region()
	vc := region.KeepInts(st.vc)
	vc[st.id]++
	st.vc = vc
	slices.Sort(st.dirty)
	pages := region.KeepInts(slices.Compact(st.dirty))
	st.dirty = st.dirty[:0]
	rec := &interval{
		proc:  st.id,
		seq:   vc[st.id],
		vc:    vc,
		pages: pages,
		twins: make([][]byte, len(pages)),
		diffs: make([]*mem.Diff, len(pages)),
	}
	// Every dirty page was twinned by its write fault, and only here does
	// its twin leave the frame: each page's twin moves into the interval.
	for i, pg := range pages {
		f := c.M.Frame(pg)
		rec.twins[i] = f.Twin
		f.Twin = nil
		st.pages[pg].undiffed = rec
		writeProtect(f)
		pr.logNotice(pg, st.id, rec.seq)
	}
	st.ivals = append(st.ivals, rec)
	// Interval bookkeeping cost.
	c.P.Advance(pr.e.Params.ListCycles(len(pages)), stats.Synch)
}

// rowOf returns the index of writer's row in rows, or where it would be
// inserted.
func rowOf(rows []wnRow, writer int) (int, bool) {
	return slices.BinarySearchFunc(rows, writer, func(r wnRow, w int) int { return r.writer - w })
}

// logNotice appends (writer, seq) to the page's log.
func (pr *TM) logNotice(pg, writer, seq int) {
	i, ok := rowOf(pr.log[pg], writer)
	if !ok {
		pr.log[pg] = slices.Insert(pr.log[pg], i, wnRow{writer: writer})
	}
	row := &pr.log[pg][i]
	row.seqs = append(row.seqs, seq)
}

// between returns the row's seqs above from's entry for its writer and
// up to to's (from nil: the zero clock), for clocks from ≤ to.
func (r wnRow) between(from, to []int) []int {
	lo := 0
	if from != nil {
		lo, _ = slices.BinarySearch(r.seqs, from[r.writer]+1)
	}
	hi, _ := slices.BinarySearch(r.seqs, to[r.writer]+1)
	return r.seqs[lo:hi]
}

// closed returns holder's closed interval seq, wanted by asker for page
// (-1: for all its pages). Every seq up to vc[holder] closed an interval
// and intervals are never collected, so one that is asked for — by a
// request derived from the log, or a clock that covers it — and not held
// is a protocol bug; skipping it would leave a stale page behind a clean
// checksum path.
func (pr *TM) closed(holder, seq, asker, page int) *interval {
	ivals := pr.ps[holder].ivals
	if seq < 1 || seq > len(ivals) {
		panic(fmt.Sprintf("tm: proc %d wants interval #%d of proc %d (page %d), which has closed only %d",
			asker, seq, holder, page, len(ivals)))
	}
	return ivals[seq-1]
}

// forceDiff materializes the diff of the page's undiffed interval, on the
// generator's critical path; every caller checks undiffed first. cat
// attributes the cost (Data when forced by a local re-twin).
func (pr *TM) forceDiff(c *proto.Ctx, st *tmProc, pg int, cat stats.Category) {
	pp := &pr.e.Params
	cost := pp.DiffCycles(pr.pageSize) + c.P.MemBus.Cost(c.P.Clock, pp.Words(pr.pageSize))
	pr.lazyDiff(st, st.pages[pg].undiffed, pg, c.P.Clock, cost)
	c.P.Advance(cost, cat)
}

// svcDiff returns the requested diff of an interval, creating it in
// service context if it is still a twin (the generator-side critical path
// cost the paper calls out).
func (pr *TM) svcDiff(s *sim.Svc, st *tmProc, rec *interval, pg int) *mem.Diff {
	i := rec.slot(pg)
	if d := rec.diffs[i]; d != nil {
		return d
	}
	cost := pr.e.Params.DiffCycles(pr.pageSize)
	d := pr.lazyDiff(st, rec, pg, s.Now, cost)
	s.Charge(cost)
	s.ChargeMem(pr.pageSize)
	return d
}

// lazyDiff encodes the diff of interval rec for page pg against the twin
// the interval holds (closeInterval moved every dirty page's twin into
// it), counts cost cycles of creation, emits the diff-create event at
// cycle at, and publishes the diff in place of the twin. Callers charge
// the cost after it returns: the charge can block, and a diff request
// serviced meanwhile must find the diff published — re-diffing the
// interval would consume its twin twice and ship a redundant duplicate.
func (pr *TM) lazyDiff(st *tmProc, rec *interval, pg int, at, cost uint64) *mem.Diff {
	ctx := pr.ctxs[st.id]
	i := rec.slot(pg)
	d := ctx.M.MakeDiff(pg, rec.twins[i], pr.e.Params.WordBytes)
	ctx.P.Stats.DiffCreateCycles += cost
	if d == nil {
		d = &mem.Diff{Page: pg}
	} else {
		ctx.P.Stats.DiffsCreated++
		ctx.P.Stats.DiffBytesCreated += uint64(d.EncodedBytes())
	}
	pr.e.Tracer.Diff(at, st.id, trace.KindDiffCreate, pg, d.ID, int64(d.EncodedBytes()), 0)
	rec.diffs[i] = d
	ctx.M.RecycleTwin(rec.twins[i])
	rec.twins[i] = nil
	if st.pages[pg].undiffed == rec {
		st.pages[pg].undiffed = nil
	}
	return d
}

// applyWNs counts the fresh write notices (not already seen) and
// invalidates the valid pages they name; it returns how many were fresh.
// It records nothing: the next fault reads what it must fetch from the
// log, through the page's seen clock and the processor's.
func (pr *TM) applyWNs(ctx *proto.Ctx, st *tmProc, wns []wnRef) int {
	fresh := 0
	for _, wn := range wns {
		if wn.proc == st.id || wn.seq <= st.vc[wn.proc] {
			continue
		}
		fresh++
		ctx.P.Stats.WriteNoticesReceived++
		if pr.noted != nil {
			pr.noted(st.id, wn, false)
		}
		if ctx.M.Peek(wn.page).Valid {
			ctx.M.Invalidate(wn.page)
			ctx.P.Stats.Invalidations++
		}
	}
	return fresh
}

// collectWNs gathers the write notices for all intervals the target to
// (with vector clock tvc) has not seen, from the perspective of a processor
// whose knowledge is svc.
func (pr *TM) collectWNs(to int, svc, tvc []int) []wnRef {
	out := pr.wns.Get()
	for p := 0; p < pr.nprocs; p++ {
		for seq := tvc[p] + 1; seq <= svc[p]; seq++ {
			for _, pg := range pr.closed(p, seq, to, -1).pages {
				out = append(out, wnRef{proc: p, seq: seq, page: pg})
			}
		}
	}
	return out
}

// joinVC returns the least upper bound of two clocks and writes neither:
// b if it covers a (ties included, so a processor adopts the clock it
// received), a if it covers b, and a fresh slice only when the two are
// incomparable. A published clock is shared, never copied (DESIGN.md,
// "TreadMarks' write notices"), so the result may alias an input.
func joinVC(a, b []int) []int {
	aCovers, bCovers := true, true
	for i, v := range b {
		if a[i] < v {
			aCovers = false
		} else if a[i] > v {
			bCovers = false
		}
	}
	switch {
	case bCovers:
		return b
	case aCovers:
		return a
	}
	out := make([]int, len(a))
	for i := range out {
		out[i] = max(a[i], b[i])
	}
	return out
}

// mergeVC raises dst to cover src in place. Its one caller merges a barrier
// subtree's arrivals into tmProc.combVC, which nobody else holds until it
// is sent.
func mergeVC(dst, src []int) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func writeProtect(f *mem.Frame) { f.WriteEpoch = 0 }
