package proto

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/pool"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// PageDelta is the coherence delta of a base-page fetch: what a protocol
// ships with the copy besides the frame. It runs at the home while it
// serves page to processor from; extra rides the reply, bytes larger on
// the wire, and FetchPage hands it to the requester.
type PageDelta func(home, page, from int) (extra any, bytes int)

// PageHome is the base-page service every DSM protocol embeds: a
// processor asks a page's home for its copy, the home pays for reading the
// frame and replies with it (plus the protocol's delta), and the requester
// pays for writing it into its own frame. Which node is the home, and when
// a base copy is needed at all, stay with the protocol.
type PageHome struct {
	ctxs  []*Ctx
	delta PageDelta
	serve sim.Handler

	// snaps recycles the page snapshots replies carry: servePage takes
	// one (a new one comes from the space's region), FetchPage puts it
	// back once it is copied into the frame — or keeps it as the frame.
	snaps pool.Slices[byte]
}

// pageReply is the payload of a page reply.
type pageReply struct {
	data  []byte
	extra any
}

// InitPageHome wires the service at Attach time; delta may be nil.
func (h *PageHome) InitPageHome(ctxs []*Ctx, delta PageDelta) {
	h.ctxs, h.delta = ctxs, delta
	h.serve = h.servePage
}

// FetchPage brings c's copy of the page up to the home's and returns the
// protocol's delta. It blocks for the round trip.
func (h *PageHome) FetchPage(c *Ctx, page, home int) any {
	c.P.Stats.PageFetches++
	rep := c.Call(stats.Data, home, 8, page, h.serve).(pageReply)
	c.E.Tracer.Page(c.P.Clock, c.ID, trace.KindPageFetch, page, int64(home), int64(len(rep.data)))
	// Copy the page in across the memory bus.
	size := c.S.PageSize()
	c.P.Advance(c.P.MemBus.Cost(c.P.Clock, c.E.Params.Words(size)), stats.Data)
	// Nobody reads the snapshot again: a reply is delivered to its parked
	// caller once — the reliable transport's dedup drops duplicates before
	// the handler, and a retransmission's payload is never read if the
	// first copy landed. A crash does not abort the requester's
	// computation (sim/crash.go), so it still collects its reply; a run
	// abandoned mid-fetch leaves the snapshot to its region. So a page
	// never touched here takes the snapshot as its frame, and only a
	// snapshot copied into an existing frame goes back to the home.
	if !c.M.Install(page, rep.data) {
		h.snaps.Put(rep.data)
	}
	c.P.Cache.InvalidateRange(c.S.PageBase(page), size)
	return rep.extra
}

// servePage runs at the home: snapshot the frame, add the delta, reply.
func (h *PageHome) servePage(s *sim.Svc, m *sim.Msg) {
	page := m.Payload.(int)
	home := h.ctxs[m.To]
	rep := pageReply{data: home.S.PageFrom(&h.snaps)}
	copy(rep.data, home.M.Frame(page).Data)
	s.ChargeMem(len(rep.data))
	bytes := len(rep.data)
	if h.delta != nil {
		var more int
		rep.extra, more = h.delta(m.To, page, m.From)
		bytes += more
	}
	h.ctxs[m.From].Reply(s, bytes, rep)
}

// ChargeTwin charges this processor for making a twin of one page.
func (c *Ctx) ChargeTwin(cat stats.Category) {
	pp := &c.E.Params
	size := c.S.PageSize()
	cost := pp.TwinCycles(size) + c.P.MemBus.Cost(c.P.Clock, pp.Words(size))
	c.P.Stats.TwinCycles += cost
	c.P.Advance(cost, cat)
}

// PatchDiff patches a diff into this processor's frame and invalidates
// the cache lines it rewrote (data changed under the processor's feet).
// Costing the application is the caller's business: the protocols differ
// in who pays and what it hides behind.
func (c *Ctx) PatchDiff(d *mem.Diff) {
	d.Apply(c.M.Frame(d.Page).Data)
	base := c.S.PageBase(d.Page)
	for off, data := range d.Runs() {
		c.P.Cache.InvalidateRange(base+off, len(data))
	}
}

// ServeDiff applies a diff to this processor's frame in service context:
// the handler s pays for patching the diff's data and the memory traffic,
// the cycles are counted as applied (hidden behind a synchronization stall
// when hidden), and the diff-apply event is stamped at the service's clock.
func (c *Ctx) ServeDiff(s *sim.Svc, d *mem.Diff, hidden bool) {
	data := d.DataBytes()
	cost := c.E.Params.DiffCycles(data)
	s.Charge(cost)
	s.ChargeMem(data)
	c.P.Stats.DiffApplyCycles += cost
	if hidden {
		c.P.Stats.DiffApplyHidden += cost
	}
	c.P.Stats.DiffsApplied++
	c.E.Tracer.Diff(s.Now, c.ID, trace.KindDiffApply, d.Page, d.ID, int64(data), trace.Flag(hidden))
	c.PatchDiff(d)
}
