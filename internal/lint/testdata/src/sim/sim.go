// Package sim is the fixture stand-in for aecdsm/internal/sim: the
// processor and service surface the fixtures call, with empty bodies.
package sim

import "stats"

// Proc is a simulated processor.
type Proc struct{}

// Advance charges cost cycles to cat.
func (p *Proc) Advance(cost uint64, cat stats.Category) {}

// Checkpoint yields to the engine.
func (p *Proc) Checkpoint() {}

// Msg is one in-flight message.
type Msg struct {
	From, To int
	Payload  any
}

// Handler consumes a delivered message in service context.
type Handler func(*Svc, *Msg)

// Svc is the service context a handler runs in.
type Svc struct{}

// ChargeList bills a list walk of n entries.
func (s *Svc) ChargeList(n int) {}

// Send queues a message from service context.
func (s *Svc) Send(to, kind, size int, payload any, h Handler) {}
