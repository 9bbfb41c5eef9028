package sim

import (
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Msg is a protocol message in flight.
type Msg struct {
	From, To int
	Kind     int
	Bytes    int // payload bytes (header added by the engine)
	Payload  any
	ArriveAt Time

	// Reliable-transport bookkeeping, used only when fault injection is
	// enabled (engine.rel != nil): per-(sender,receiver) sequence number,
	// 1-based transmission attempt, the sender's pending entry when the
	// message is acked and retransmitted (nil: best effort, fire and
	// forget), and what this record is in the event queue (reliable.go).
	seq     uint64
	attempt int
	tx      *pendingTx
	op      uint8
}

// freeMsg recycles a message once its last reader has returned, dropping
// its reference on the sender's pending entry, which follows it into its
// own pool when this was the last one.
func (e *Engine) freeMsg(m *Msg) {
	if tx := m.tx; tx != nil {
		if tx.refs--; tx.refs == 0 {
			e.rel.txs.Put(tx)
		}
	}
	e.msgs.Put(m)
}

// Handler services a delivered message on the destination node. It runs in
// service context: use s.Charge for processing costs and s.Send for
// replies; everything is charged to the destination processor's service
// time, which is overlapped with any stall the destination is in, or
// stolen from its computation otherwise (the paper's ipc category).
type Handler func(s *Svc, m *Msg)

// Svc is the service context in which a message handler executes.
type Svc struct {
	E   *Engine
	P   *Proc // the processor doing the servicing
	Now Time  // service-local current time
	m   *Msg
}

// Charge advances service time by the given cycles.
func (s *Svc) Charge(cycles uint64) { s.Now += cycles }

// ChargeList advances service time by the list processing cost of n items.
func (s *Svc) ChargeList(n int) { s.Now += s.E.Params.ListCycles(n) }

// ChargeMem moves bytes through the servicing node's memory bus.
func (s *Svc) ChargeMem(bytes int) {
	s.Now = s.P.MemBus.Transfer(s.Now, s.E.Params.Words(bytes))
}

// Send transmits a message from the servicing node, charging the messaging
// overhead and I/O bus to service time.
func (s *Svc) Send(to, kind, bytes int, payload any, h Handler) {
	s.Now = s.E.sendAt(s.P, s.Now, to, kind, bytes, payload, h)
}

// Wake wakes a blocked processor at service completion time.
func (s *Svc) Wake(p *Proc) { p.Wake(s.Now) }

// SendFrom transmits a message from a running processor's goroutine. The
// send overhead (messaging software cost + I/O bus occupancy) is charged to
// the sender under the given category. Delivery invokes h on the
// destination node in service context.
func (e *Engine) SendFrom(p *Proc, cat stats.Category, to, kind, bytes int, payload any, h Handler) {
	before := p.Clock
	after := e.sendOpt(p, p.Clock, to, kind, bytes, payload, h, true)
	p.Advance(after-before, cat)
}

// SendFromBestEffort is SendFrom for traffic that tolerates loss (LAP
// eager pushes): under fault injection the message gets no ack and is
// never retransmitted, so a drop silently loses it — the receiving
// protocol must have a fallback. Without fault injection it is exactly
// SendFrom.
func (e *Engine) SendFromBestEffort(p *Proc, cat stats.Category, to, kind, bytes int, payload any, h Handler) {
	before := p.Clock
	after := e.sendOpt(p, p.Clock, to, kind, bytes, payload, h, false)
	p.Advance(after-before, cat)
}

// sendAt implements the shared send path: overhead + I/O bus at the
// sender, wormhole network transfer, then a delivery event at the
// destination. It returns the time the sender is free to continue.
func (e *Engine) sendAt(from *Proc, now Time, to, kind, bytes int, payload any, h Handler) Time {
	return e.sendOpt(from, now, to, kind, bytes, payload, h, true)
}

// sendOpt is sendAt plus the reliability class. With fault injection off
// (or a local delivery, which cannot be lost) the path is exactly the
// historical one; with it on, remote messages detour through the reliable
// transport in reliable.go.
func (e *Engine) sendOpt(from *Proc, now Time, to, kind, bytes int, payload any, h Handler, reliable bool) Time {
	pp := &e.Params
	size := bytes + pp.MsgHeaderBytes
	from.Stats.MsgsSent++
	from.Stats.BytesSent += uint64(size)
	e.Tracer.Event(now, from.ID, trace.KindMsgSend, int64(to), int64(size))

	senderDone := now + pp.MsgOverheadCycles
	if to != from.ID {
		// DMA the message across the sender's I/O bus.
		senderDone = from.IOBus.Transfer(senderDone, pp.Words(size))
	}
	m := e.msgs.Get()
	m.From, m.To, m.Kind, m.Bytes, m.Payload = from.ID, to, kind, bytes, payload
	if e.rel != nil && to != from.ID {
		e.relSend(m, h, size, senderDone, reliable)
		return senderDone
	}
	arrive := e.Net.Transfer(senderDone, from.ID, to, size)
	m.ArriveAt = arrive
	e.scheduleDeliver(arrive, m, h)
	return senderDone
}

// deliver runs a message handler on the destination node.
func (e *Engine) deliver(m *Msg, h Handler) {
	p := e.Procs[m.To]
	pp := &e.Params
	start := m.ArriveAt
	if p.svcBusyUntil > start {
		start = p.svcBusyUntil
	}
	s := e.svcs.Get()
	s.E, s.P, s.Now, s.m = e, p, start, m
	// Interrupt dispatch plus pulling the message across the I/O bus.
	if m.From != m.To {
		s.Charge(pp.InterruptCycles)
		s.Now = p.IOBus.Transfer(s.Now, pp.Words(m.Bytes+pp.MsgHeaderBytes))
	}
	h(s, m)
	p.svcBusyUntil = s.Now
	svc := s.Now - start
	// Handlers run synchronously and never retain s (replies get a fresh
	// context at their own delivery), so the recycle is safe.
	e.svcs.Put(s)
	e.Tracer.Event(start, m.To, trace.KindMsgDeliver, int64(m.From), int64(svc))
	// Handlers extract the payload synchronously and never retain the
	// message; a tracked one is its own copy, the transport resends from
	// the original.
	e.freeMsg(m)
	if p.Blocked() || p.done {
		// Service overlapped an existing stall: hidden.
		p.Stats.IPCHiddenCycles += svc
	} else {
		// Steal the cycles from the running computation; they are
		// charged to the ipc category at the next advance.
		p.Steal(svc)
	}
}
