package proto

import (
	"aecdsm/internal/mem"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/topo"
)

// BarMgr is the barrier manager's processor: the root of the relay tree.
const BarMgr = 0

// relayKind is the kind of every message the relay sends: arrivals,
// their forwards up the tree and the releases down it.
// sim.Msg.Kind is written but never read (ROADMAP item 10(e)).
const relayKind = -3

// Relay is the barrier fan-in/fan-out every DSM protocol runs its barrier
// messages through: the combining tree (flat — the paper's centralized
// barrier — unless Params.BarrierRadix says otherwise, docs/SCALING.md),
// the count of processors each node has heard from, the forward to the
// parent once a subtree is complete, and the relay of the release down the
// same edges. A processor arrives through the relay (Arrive) and awaits
// its answer in its Ctx; every release handler ends by landing it there
// (Ctx.Land). A protocol supplies what it combines on the way up and what
// it distributes on the way down; its handlers charge their own list work,
// the relay only the fan-out it adds at interior nodes. A barrier that
// only counts processors in and releases them is the relay's own (Sync).
//
// One Relay carries one fan-in at a time. That is enough for a barrier
// with several phases (AEC: arrive, then ready), because no processor
// enters a phase before the manager has completed the previous one.
type Relay struct {
	topo.Tree
	ctxs  []*Ctx
	heard []int // per node: processors of its subtree heard from so far
	kids  []int // fan-out scratch (Children, Broadcast, Down)

	countH, releaseH sim.Handler // Sync's handlers, bound once
}

// InitRelay builds the tree over the engine's processors at Attach time.
func (r *Relay) InitRelay(e *sim.Engine, ctxs []*Ctx) {
	r.Tree = topo.New(len(e.Procs), e.Params.BarrierRadix)
	r.ctxs = ctxs
	r.heard = make([]int, len(e.Procs))
	r.countH, r.releaseH = r.count, r.release
}

// Arrive sends c's processor's arrival at a barrier, bytes on the wire,
// to its first hop up the tree; h gathers it there. The processor then
// awaits what the barrier answers it with.
func (r *Relay) Arrive(c *Ctx, bytes int, payload any, h sim.Handler) {
	c.asking()
	c.E.SendFrom(c.P, stats.Synch, r.ArrivalDest(c.ID), relayKind, bytes, payload, h)
}

// Sync is the counting barrier: c's processor counts itself in up the
// tree and parks until the release comes back down. Every hop is 8
// bytes; a node charges one list element per count it absorbs, and an
// interior node the fan-out of the release. It is Munin's whole barrier
// and the ready phase of AEC's.
func (r *Relay) Sync(c *Ctx) {
	r.Arrive(c, 8, 1, r.countH)
	c.Await(stats.Synch, nil)
}

// count absorbs a subtree's count at m.To: forwarded up once the subtree
// is complete, the release broadcast once the machine is.
func (r *Relay) count(s *sim.Svc, m *sim.Msg) {
	s.ChargeList(1)
	n, complete := r.Gather(m.To, m.Payload.(int))
	if !complete {
		return
	}
	if m.To != BarMgr {
		r.Up(s, m.To, 8, n, r.countH)
		return
	}
	r.Broadcast(s, 8, nil, r.releaseH)
}

// release lets a processor out of Sync, relaying the release to its tree
// children first.
func (r *Relay) release(s *sim.Svc, m *sim.Msg) {
	r.Down(s, m, r.releaseH)
	r.ctxs[m.To].Land(s, nil)
}

// Gather records that node has heard from n more processors of its
// subtree. It returns the count so far and whether the subtree — at
// BarMgr, the machine — is complete; a complete count restarts at zero.
func (r *Relay) Gather(node, n int) (heard int, complete bool) {
	r.heard[node] += n
	heard = r.heard[node]
	if heard < r.SubtreeSize(node) {
		return heard, false
	}
	r.heard[node] = 0
	return heard, true
}

// Children returns node's tree children in ascending order, in scratch
// that the next Children, Broadcast or Down overwrites.
func (r *Relay) Children(node int) []int {
	r.kids = r.AppendChildren(r.kids[:0], node)
	return r.kids
}

// Up forwards what node combined for its complete subtree to its parent.
func (r *Relay) Up(s *sim.Svc, node, bytes int, payload any, h sim.Handler) {
	s.Send(r.Parent(node), relayKind, bytes, payload, h)
}

// Broadcast starts a release at the manager: to itself first, then to its
// children in ascending order, which in the flat tree is everyone.
func (r *Relay) Broadcast(s *sim.Svc, bytes int, payload any, h sim.Handler) {
	s.Send(BarMgr, relayKind, bytes, payload, h)
	r.kids = r.AppendChildren(r.kids[:0], BarMgr)
	for _, q := range r.kids {
		s.Send(q, relayKind, bytes, payload, h)
	}
}

// Down relays a release that landed at m.To on to that node's children,
// charging the interior node for walking them. Every release handler calls
// it first; at a leaf, and at the manager (whose Broadcast already served
// its children), it does nothing.
func (r *Relay) Down(s *sim.Svc, m *sim.Msg, h sim.Handler) {
	if m.To == BarMgr {
		return
	}
	r.kids = r.AppendChildren(r.kids[:0], m.To)
	if len(r.kids) == 0 {
		return
	}
	s.ChargeList(len(r.kids))
	for _, q := range r.kids {
		s.Send(q, m.Kind, m.Bytes, m.Payload, h)
	}
}

// A barrier episode's scratch is a list a protocol rebuilds at every
// barrier and keeps between them, because nothing reads the previous
// episode's contents by the time it rebuilds it: AEC's instructions,
// targets, homes and arrival lists, TreadMarks' arrival and interior
// combining lists. Each protocol argues why (DESIGN.md, "A barrier
// episode's scratch"); Reuse is where it starts over.

// ScratchPoison is what Reuse fills reused int scratch with under
// mem.Poisoned: no processor, page, lock or count is made of it, and it
// indexes nothing.
const ScratchPoison = -0x5A5A5A5A

// Reuse returns s emptied for a new barrier episode, keeping its array.
// Under mem.Poisoned all of the array is first overwritten with garbage,
// so that a reader still holding the previous episode's contents — the
// reuse argument's violation — reads garbage.
func Reuse[T any](s []T, garbage T) []T {
	if mem.Poisoned {
		fill := s[:cap(s)]
		for i := range fill {
			fill[i] = garbage
		}
	}
	return s[:0]
}
