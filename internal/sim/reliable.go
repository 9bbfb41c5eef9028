package sim

// Reliable transport: the protocol-hardening layer that runs when fault
// injection is enabled (Engine.EnableFaults). Every remote message gets a
// per-(sender,receiver) sequence number; the receiver suppresses duplicate
// deliveries (so every protocol handler is effectively idempotent — it
// runs at most once per logical message, no matter how often the network
// repeats it); reliable messages are acknowledged, and unacked ones are
// retransmitted with exponential backoff in virtual cycles.
//
// Recovery work is real work: retransmissions and acks occupy the node's
// message-service window (svcBusyUntil) and are charged to the Recovery
// category — stolen from the running computation, or recorded as hidden
// when they overlap an existing stall — so hardened runs report what fault
// tolerance costs, separately from the paper's ipc category.
//
// Liveness: the injector never drops a reliable transmission (or the ack
// it triggers) once its attempt number reaches fault.DefaultMaxAttempts,
// and backoff eventually exceeds the round trip, so every reliable message is
// delivered and acked after boundedly many attempts. Best-effort traffic
// (LAP eager pushes) gets sequence numbers and dedup but no ack or
// retransmission: a dropped push stays lost, and the AEC acquirer times
// out and falls back to explicit fetches (degraded-mode LAP).
//
// Sequence-number persistence (the crash-tier decision, docs/ROBUSTNESS.md):
// the transport's per-pair sequence counters and dedup windows and the
// sender's pending-retransmission set are modeled as journaled to
// node-local stable storage — they survive a crash/restart untouched.
// Without this, a restarted receiver would re-run a handler for a
// retransmitted message it already serviced before the crash (breaking
// exactly-once delivery, and with it the bit-identical-results contract),
// and a restarted sender would reuse sequence numbers and have fresh
// messages swallowed by the peer's dedup. Messages IN FLIGHT across an
// outage are lost (crash.go drops them at transmission and at arrival);
// the retransmission loop is what carries reliable traffic across the
// window.
//
// When Engine.rel is nil none of this code runs and the message path is
// byte-for-byte the historical one: zero perturbation.

import (
	"aecdsm/internal/bitset"
	"aecdsm/internal/pool"
	"aecdsm/internal/trace"
)

// ackBytes is the payload size of a transport-level acknowledgement.
const ackBytes = 16

// Transport event tags (Msg.op): what the event loop does with a queued
// message record. Zero is the plain delivery every clean run uses.
const (
	opDeliver = iota // run the handler
	opTracked        // a tracked delivery copy arrives
	opTimeout        // the retransmission timer of one attempt fires
	opAck            // an ack reaches the sender
)

// pendingTx is one reliable message at its sender. refs counts the Msgs
// whose tx points here — the retained original until its ack lands, and
// every queued delivery copy, timer and ack record — and freeMsg returns
// the entry to rel.txs when the last of them goes. So an entry is recycled
// only once acked and past its last armed timer, and neither a stale timer
// nor the ack of a late duplicate can ever reach a recycled one.
type pendingTx struct {
	m    *Msg // the original, its attempt the latest sent; nil once acked
	h    Handler
	refs int
}

// pair is the transport state of one directed (sender, receiver) pair: the
// sender's sequence counter and the receiver's dedup window. Every sequence
// number up to base has been delivered; bit i of bits records base+1+i.
// Sequence numbers are dense per pair, so the window slides past each fully
// delivered word and is as long as the pair's reordering, not its history
// (a best-effort message lost for good pins its word: one bit per later
// message).
type pair struct {
	nextSeq uint64
	base    uint64
	bits    bitset.Set
}

// firstSeen records seq as delivered and reports whether it was new.
func (p *pair) firstSeen(seq uint64) bool {
	if seq <= p.base {
		return false
	}
	i := int(seq - p.base - 1)
	if p.bits.Has(i) {
		return false
	}
	p.bits = p.bits.Add(i)
	for len(p.bits) > 0 && p.bits[0] == ^uint64(0) {
		p.bits = p.bits[:copy(p.bits, p.bits[1:])] // slide, keeping the backing array
		p.base += 64
	}
	return true
}

// reliability is the transport state. pairs is the run's; the pool and
// the spare rows outlive it with the engine (Engine.Renew).
type reliability struct {
	pairs [][]pair // [from][to]; a sender's row is taken at its first send
	spare [][]pair // rows of ended runs, their pairs' windows kept
	txs   pool.Of[pendingTx]
}

// renew ends a run's transport state: every row goes to spare.
func (r *reliability) renew() {
	for i, row := range r.pairs {
		if row != nil {
			r.spare = append(r.spare, row)
			r.pairs[i] = nil
		}
	}
	r.pairs = r.pairs[:0]
}

// arm readies the transport for a machine of n nodes, no row taken yet.
func (r *reliability) arm(n int) {
	if cap(r.pairs) < n {
		r.pairs = make([][]pair, 0, n)
	}
	r.pairs = r.pairs[:n]
	clear(r.pairs)
}

// row returns a sender's row of n pairs, every one at its first message: a
// spare one when one is long enough, keeping its pairs' window arrays
// (bitset.Add extends a window with zeroes), or a new one.
func (r *reliability) row(n int) []pair {
	for len(r.spare) > 0 {
		last := len(r.spare) - 1
		row := r.spare[last]
		r.spare[last] = nil
		r.spare = r.spare[:last]
		if cap(row) >= n {
			row = row[:n]
			for j := range row {
				row[j] = pair{bits: row[j].bits[:0]}
			}
			return row
		}
	}
	return make([]pair, n)
}

// relSend enters a freshly sent remote message into the transport:
// assigns its sequence number, registers it for retransmission if
// reliable, and attempts the first transmission.
func (e *Engine) relSend(m *Msg, h Handler, size int, ready Time, reliable bool) {
	row := e.rel.pairs[m.From]
	if row == nil {
		row = e.rel.row(len(e.Procs))
		e.rel.pairs[m.From] = row
	}
	row[m.To].nextSeq++
	m.seq, m.attempt = row[m.To].nextSeq, 1
	if reliable {
		m.tx = e.rel.txs.Get()
		m.tx.m, m.tx.h, m.tx.refs = m, h, 1
	}
	e.transmit(m, h, size, ready)
	if !reliable {
		e.freeMsg(m) // its copies are queued; a reliable original waits for its ack
	}
}

// transmit performs one transmission attempt of a tracked message: asks
// the injector for its fate, arms the retransmission timer (for reliable
// messages) and reserves the network for each surviving copy. Each copy is
// a pooled record of its own, so m may be resent or freed while they fly.
func (e *Engine) transmit(m *Msg, h Handler, size int, ready Time) {
	dec := e.Faults.OnSend(ready, m.From, m.To, m.attempt, m.tx != nil)
	if m.tx != nil {
		e.queueTx(opTimeout, m, ready+e.Faults.RTO(m.attempt))
	}
	// A crashed endpoint or a partition between the pair loses the
	// transmission outright, DefaultMaxAttempts floor or not: the link is
	// physically dead. The retransmission timer above keeps the message
	// alive until the (finite) outage ends.
	if !dec.Drop && e.Faults.Outage(ready, m.From, m.To) {
		dec.Drop = true
	}
	if dec.Drop {
		e.traceDrop(ready, m.From, m.To, m.seq)
		return
	}
	copies := 1
	if dec.Dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		arrive := e.Net.Transfer(ready+dec.ExtraDelay, m.From, m.To, size)
		cp := e.msgs.Get()
		*cp = *m
		cp.op, cp.ArriveAt = opTracked, arrive
		if cp.tx != nil {
			cp.tx.refs++
		}
		e.scheduleDeliver(arrive, cp, h)
	}
}

// traceDrop counts and traces a transmission from src to dst lost at cycle
// at (injected loss at send, or an outage at either end).
func (e *Engine) traceDrop(at Time, src, dst int, seq uint64) {
	e.Procs[src].Stats.MsgsDropped++
	e.Tracer.Event(at, src, trace.KindMsgDrop, int64(dst), int64(seq))
}

// queueTx schedules a transport record about m's pending entry — the
// retransmission timer of m's attempt, or the arrival of m's ack — as a
// pooled Msg on the delivery path: no closure, the entry rides by pointer.
func (e *Engine) queueTx(op uint8, m *Msg, at Time) {
	r := e.msgs.Get()
	r.op, r.tx, r.attempt, r.ArriveAt = op, m.tx, m.attempt, at
	r.tx.refs++
	e.scheduleDeliver(at, r, nil)
}

// transportEvent dispatches a queued transport record (Msg.op != opDeliver).
func (e *Engine) transportEvent(m *Msg, h Handler) {
	switch m.op {
	case opTracked:
		e.deliverTracked(m, h)
	case opTimeout:
		// A no-op if the message has been acked by now, or if a newer
		// attempt has superseded this one (its own timer is armed).
		if orig := m.tx.m; orig != nil && orig.attempt == m.attempt {
			e.retransmit(orig, m.tx.h, m.ArriveAt)
		}
		e.freeMsg(m)
	case opAck:
		if orig := m.tx.m; orig != nil {
			m.tx.m = nil
			e.freeMsg(orig)
		}
		e.freeMsg(m)
	}
}

// retransmit re-sends an unacked reliable message. The resend overhead
// (messaging software cost + I/O bus) runs in the sender's service window
// and is charged to Recovery: the OS-level transport preempts whatever
// the node is doing, exactly like message service does for ipc.
func (e *Engine) retransmit(m *Msg, h Handler, at Time) {
	from := e.Procs[m.From]
	pp := &e.Params
	size := m.Bytes + pp.MsgHeaderBytes
	start := at
	if from.svcBusyUntil > start {
		start = from.svcBusyUntil
	}
	done := start + pp.MsgOverheadCycles
	done = from.IOBus.Transfer(done, pp.Words(size))
	from.svcBusyUntil = done
	e.chargeRecovery(from, done-start)

	m.attempt++
	from.Stats.Retransmits++
	from.Stats.MsgsSent++
	from.Stats.BytesSent += uint64(size)
	e.Tracer.Event(start, m.From, trace.KindMsgRetry, int64(m.To), int64(m.attempt))
	e.transmit(m, h, size, done)
}

// deliverTracked is the receive side of the transport: injected node
// stalls first, then duplicate suppression, then ack, then the normal
// delivery path (which runs the protocol handler exactly once per
// sequence number).
func (e *Engine) deliverTracked(m *Msg, h Handler) {
	// A message in flight when its destination crashes (or a partition
	// closes behind it) is lost at arrival: the receiver takes no
	// interrupt, the handler does not run. Reliable messages recover via
	// the sender's retransmission loop; best-effort ones stay lost.
	if e.Faults.Outage(m.ArriveAt, m.From, m.To) {
		e.traceDrop(m.ArriveAt, m.From, m.To, m.seq)
		e.freeMsg(m)
		return
	}
	p := e.Procs[m.To]
	pp := &e.Params
	if stall := e.Faults.OnDeliver(m.ArriveAt, m.To); stall > 0 {
		end := m.ArriveAt + stall
		if p.svcBusyUntil < end {
			p.svcBusyUntil = end
		}
		p.Stats.FaultStallCycles += stall
		e.Tracer.Event(m.ArriveAt, m.To, trace.KindFaultStall, int64(stall), 0)
	}
	if !e.rel.pairs[m.From][m.To].firstSeen(m.seq) {
		// Duplicate: the node still takes the interrupt and pulls the
		// message across its I/O bus before it can recognize the
		// sequence number, but the handler does not run. Re-ack in case
		// the previous ack was lost (the sender is evidently still
		// retransmitting).
		start := m.ArriveAt
		if p.svcBusyUntil > start {
			start = p.svcBusyUntil
		}
		done := start + pp.InterruptCycles
		done = p.IOBus.Transfer(done, pp.Words(m.Bytes+pp.MsgHeaderBytes))
		p.svcBusyUntil = done
		e.chargeRecovery(p, done-start)
		p.Stats.DupMsgsSuppressed++
		e.Tracer.Event(start, m.To, trace.KindMsgDup, int64(m.From), int64(m.seq))
		if m.tx != nil {
			e.sendAck(m)
		}
		e.freeMsg(m)
		return
	}
	if m.tx != nil {
		e.sendAck(m)
	}
	e.deliver(m, h)
}

// sendAck emits the transport acknowledgement for a delivered reliable
// message. The ack occupies the receiver's service window (charged to
// Recovery) and crosses the real network, so it can itself be dropped or
// delayed — but never once the data message's attempt number has reached
// fault.DefaultMaxAttempts, which bounds the retransmission dance.
func (e *Engine) sendAck(m *Msg) {
	p := e.Procs[m.To]
	pp := &e.Params
	start := m.ArriveAt
	if p.svcBusyUntil > start {
		start = p.svcBusyUntil
	}
	size := ackBytes + pp.MsgHeaderBytes
	done := start + pp.MsgOverheadCycles
	done = p.IOBus.Transfer(done, pp.Words(size))
	p.svcBusyUntil = done
	e.chargeRecovery(p, done-start)
	p.Stats.AcksSent++
	e.Tracer.Event(start, m.To, trace.KindMsgAck, int64(m.From), int64(m.seq))

	dec := e.Faults.OnSend(done, m.To, m.From, m.attempt, true)
	if !dec.Drop && e.Faults.Outage(done, m.To, m.From) {
		dec.Drop = true
	}
	if dec.Drop {
		e.traceDrop(done, m.To, m.From, m.seq)
		return
	}
	e.queueTx(opAck, m, e.Net.Transfer(done+dec.ExtraDelay, m.To, m.From, size))
}

// chargeRecovery attributes transport work on a node: overlapped with an
// existing stall it is hidden (like IPCHiddenCycles); otherwise it is
// stolen from the running computation and lands in the Recovery category
// at the node's next advance.
func (e *Engine) chargeRecovery(p *Proc, cycles uint64) {
	if p.Blocked() || p.done {
		p.Stats.RecoveryHiddenCycles += cycles
	} else {
		p.StealRecovery(cycles)
	}
}
