package proto

import (
	"aecdsm/internal/sim"
	"aecdsm/internal/topo"
)

// BarMgr is the barrier manager's processor: the root of the relay tree.
const BarMgr = 0

// Relay is the barrier fan-in/fan-out every DSM protocol runs its barrier
// messages through: the combining tree (flat — the paper's centralized
// barrier — unless Params.BarrierRadix says otherwise, docs/SCALING.md),
// the count of processors each node has heard from, the forward to the
// parent once a subtree is complete, and the relay of the release down the
// same edges. A protocol supplies what it combines on the way up and what
// it distributes on the way down; its handlers charge their own list work,
// the relay only the fan-out it adds at interior nodes.
//
// One Relay carries one fan-in at a time. That is enough for a barrier
// with several phases (AEC: arrive, then ready), because no processor
// enters a phase before the manager has completed the previous one.
type Relay struct {
	topo.Tree
	heard []int // per node: processors of its subtree heard from so far
	kids  []int // fan-out scratch
}

// InitRelay builds the tree over the engine's processors at Attach time.
func (r *Relay) InitRelay(e *sim.Engine) {
	r.Tree = topo.New(len(e.Procs), e.Params.BarrierRadix)
	r.heard = make([]int, len(e.Procs))
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

// Send ships one relay message from a handler that has charged for it.
func (r *Relay) Send(s *sim.Svc, to, kind, bytes int, payload any, h sim.Handler) {
	svcSend(s, to, kind, bytes, payload, h)
}

// Up forwards what node combined for its complete subtree to its parent.
func (r *Relay) Up(s *sim.Svc, node, kind, bytes int, payload any, h sim.Handler) {
	svcSend(s, r.Parent(node), kind, bytes, payload, h)
}

// Broadcast starts a release at the manager: to itself first, then to its
// children in ascending order, which in the flat tree is everyone.
func (r *Relay) Broadcast(s *sim.Svc, kind, bytes int, payload any, h sim.Handler) {
	svcSend(s, BarMgr, kind, bytes, payload, h)
	r.kids = r.AppendChildren(r.kids[:0], BarMgr)
	for _, q := range r.kids {
		svcSend(s, q, kind, bytes, payload, h)
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
		svcSend(s, q, m.Kind, m.Bytes, m.Payload, h)
	}
}
