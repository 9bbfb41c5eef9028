package proto

import (
	"fmt"

	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// callKind is the kind of a call's request and its reply. sim.Msg.Kind is
// written but never read (ROADMAP item 10(e)).
const callKind = -2

// The landing zone is the one place a processor waits for a single
// answer: a call's reply, a lock grant, its barrier instructions or a
// barrier release. A processor waits for at most one answer at a time, so
// the zone lives in the Ctx, its reply handler and wait predicate are
// bound once (NewCtx), and an exchange allocates nothing beyond its
// messages. A handler at the processor's node lands the answer (Land);
// the processor consumes it (Await).

// Call sends a request from this processor and parks it until the serving
// node's handler answers through Reply; it returns the reply's payload.
// The stall is charged to cat, like the send.
func (c *Ctx) Call(cat stats.Category, to, bytes int, req any, h sim.Handler) any {
	c.asking()
	c.E.SendFrom(c.P, cat, to, callKind, bytes, req, h)
	return c.Await(cat, nil)
}

// Reply answers the Call this context's processor is parked in. It runs in
// the serving node's handler, after that handler has charged the work the
// reply stands for.
func (c *Ctx) Reply(s *sim.Svc, bytes int, payload any) {
	s.Send(c.ID, callKind, bytes, payload, c.land)
}

// landReply is the delivery handler of every reply (c.land, bound once).
func (c *Ctx) landReply(s *sim.Svc, m *sim.Msg) { c.Land(s, m.Payload) }

// Land delivers the answer this context's processor waits for, or will
// wait for, and wakes it. It runs in a handler at the processor's node. An
// answer landing before the last one was awaited is a protocol bug.
func (c *Ctx) Land(s *sim.Svc, payload any) {
	if c.answered {
		panic(fmt.Sprintf("proto: processor %d: an answer landed before the last one was awaited", c.ID))
	}
	c.answer, c.answered = payload, true
	s.Wake(c.P)
}

// Await parks this processor until its answer has landed, charging the
// stall to cat, and returns the answer. While nothing has landed it first
// calls overlap, if not nil, for as long as overlap reports work done: the
// processor's own work hidden behind the wait.
func (c *Ctx) Await(cat stats.Category, overlap func() bool) any {
	for overlap != nil && !c.answered && overlap() {
	}
	c.P.WaitUntil(c.landed, cat)
	answer := c.answer
	c.answer, c.answered = nil, false
	return answer
}

// asking is where a processor sends what it will await an answer to: it
// panics if an answer is already pending, because that one would never be
// consumed.
func (c *Ctx) asking() {
	if c.answered {
		panic(fmt.Sprintf("proto: processor %d: asked again with an answer pending", c.ID))
	}
}
