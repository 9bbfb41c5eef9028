package proto

import (
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// Call sends a request from this processor and parks it until the serving
// node's handler answers through Reply; it returns the reply's payload.
// The stall is charged to cat, like the send. A processor blocks in at
// most one call at a time, so the landing zone lives in the Ctx, its
// handler and wait predicate are bound once (NewCtx), and an exchange
// allocates nothing beyond its two messages.
func (c *Ctx) Call(cat stats.Category, to, kind, bytes int, req any, h sim.Handler) any {
	c.replied = false
	c.E.SendFrom(c.P, cat, to, kind, bytes, req, h)
	c.P.WaitUntil(c.landed, cat)
	reply := c.reply
	c.reply = nil
	return reply
}

// Reply answers the Call this context's processor is parked in. It runs in
// the serving node's handler, after that handler has charged the work the
// reply stands for.
func (c *Ctx) Reply(s *sim.Svc, kind, bytes int, payload any) {
	s.Send(c.ID, kind, bytes, payload, c.land)
}

// landReply is the delivery handler of every reply (c.land, bound once).
func (c *Ctx) landReply(s *sim.Svc, m *sim.Msg) {
	c.reply, c.replied = m.Payload, true
	s.Wake(s.P)
}
