package sim

import (
	"testing"

	"aecdsm/internal/fault"
)

// TestMsgPoolRecycleReset: freeMsg returns a message to the pool with
// nothing of its previous life left, and the next Get reuses it (identity,
// not a copy). That Put zeroes is pool's own test; this pins that sim
// recycles through it.
func TestMsgPoolRecycleReset(t *testing.T) {
	e, _ := testEngine(2)
	m := e.msgs.Get()
	m.From, m.To, m.Kind, m.Bytes = 1, 0, 7, 64
	m.Payload, m.ArriveAt = "payload", 20
	m.seq, m.attempt, m.op = 3, 2, opTracked
	e.freeMsg(m)
	if *m != (Msg{}) {
		t.Fatalf("freed message not reset: %+v", *m)
	}
	if e.msgs.Made() != 1 || e.msgs.Idle() != 1 {
		t.Fatalf("pool made %d, idle %d; want 1, 1", e.msgs.Made(), e.msgs.Idle())
	}
	if got := e.msgs.Get(); got != m {
		t.Fatal("Get after free should reuse the pooled message")
	}
}

// TestSvcPoolRecycleReset: deliver recycles its service context, and the
// next delivery's handler sees that same context carrying only its own
// delivery.
func TestSvcPoolRecycleReset(t *testing.T) {
	e, _ := testEngine(2)
	var seen []*Svc
	h := func(s *Svc, m *Msg) {
		if s.E != e || s.P != e.Procs[m.To] || s.m != m {
			t.Errorf("service context %+v does not describe its own delivery", *s)
		}
		seen = append(seen, s)
	}
	for to := 0; to < 2; to++ {
		m := e.msgs.Get()
		m.From, m.To = 0, to
		e.deliver(m, h)
		if *seen[to] != (Svc{}) {
			t.Fatalf("recycled service context not reset: %+v", *seen[to])
		}
	}
	if seen[0] != seen[1] || e.svcs.Made() != 1 || e.svcs.Idle() != 1 {
		t.Fatalf("context not reused: %p then %p, made %d, idle %d", seen[0], seen[1], e.svcs.Made(), e.svcs.Idle())
	}
}

// TestDeliverRecycles: deliver returns every message to the pool once its
// handler has run — a tracked delivery copy too (the transport resends
// from the original, never from a copy) — and the reference a copy holds
// on its sender's pending entry goes with it.
func TestDeliverRecycles(t *testing.T) {
	e, _ := testEngine(2)
	e.EnableFaults(fault.Config{})
	h := func(s *Svc, m *Msg) {}

	m := e.msgs.Get()
	m.From, m.To = 0, 0
	e.deliver(m, h)
	if e.msgs.Idle() != 1 {
		t.Fatalf("untracked message not recycled: %d idle", e.msgs.Idle())
	}
	if e.svcs.Idle() != 1 {
		t.Fatalf("service context not recycled: %d idle", e.svcs.Idle())
	}

	tx := e.rel.txs.Get()
	tx.h, tx.refs = h, 2 // the original's reference and the copy's
	cp := e.msgs.Get()
	cp.From, cp.To, cp.op, cp.tx = 0, 1, opTracked, tx
	e.deliver(cp, h)
	if e.msgs.Idle() != 1 || *cp != (Msg{}) {
		t.Fatalf("tracked copy not recycled and reset: %d idle, %+v", e.msgs.Idle(), *cp)
	}
	if tx.refs != 1 || e.rel.txs.Idle() != 0 {
		t.Fatalf("pending entry: refs %d, %d idle; want the original's reference left", tx.refs, e.rel.txs.Idle())
	}
	orig := e.msgs.Get()
	orig.tx = tx
	e.freeMsg(orig)
	if e.rel.txs.Idle() != 1 || !txIsReset(tx) {
		t.Fatalf("last reference gone, entry not recycled and reset: %d idle, %+v", e.rel.txs.Idle(), *tx)
	}
}

func txIsReset(tx *pendingTx) bool { return tx.m == nil && tx.h == nil && tx.refs == 0 }

// sendDeliverOp returns the pooled message path end to end on a
// two-processor engine, warmed up: sendOpt (pool alloc, buses, network
// reservation, unboxed delivery event) through pop and deliver (interrupt,
// handler, recycle).
func sendDeliverOp() (*Engine, func()) {
	e, _ := testEngine(2)
	h := func(s *Svc, m *Msg) {}
	p0 := e.Procs[0]
	roundTrip := func() {
		e.sendOpt(p0, e.now, 1, 0, 64, nil, h, true)
		ev := e.events.pop()
		e.now = ev.at
		e.deliver(ev.m, ev.h)
	}
	for i := 0; i < 4; i++ { // warm the pools and the queue's backing array
		roundTrip()
	}
	return e, roundTrip
}

// TestPooledSendDeliverSteadyState: a full send→deliver round trip in
// steady state allocates nothing — the pools absorb message and service
// context, the event rides the queue unboxed, and no closure is built.
func TestPooledSendDeliverSteadyState(t *testing.T) {
	e, roundTrip := sendDeliverOp()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("send+deliver allocates %v objects/op, want 0", n)
	}
	if e.msgs.Made() != 1 || e.msgs.Idle() != 1 || e.svcs.Made() != 1 || e.svcs.Idle() != 1 {
		t.Fatalf("steady state should cycle one message and one context: msgs %d/%d idle, svcs %d/%d idle",
			e.msgs.Idle(), e.msgs.Made(), e.svcs.Idle(), e.svcs.Made())
	}
}

// reliableOp returns sendDeliverOp's round trip through the reliable
// transport, on a fault schedule that injects nothing, warmed up: a send,
// its tracked delivery (dedup window, handler), the ack's flight back, and
// the retransmission timer firing as a no-op.
func reliableOp() func() {
	e, _ := testEngine(2)
	e.EnableFaults(fault.Config{})
	h := func(s *Svc, m *Msg) {}
	p0 := e.Procs[0]
	op := func() {
		e.sendOpt(p0, e.now, 1, 0, 64, nil, h, true)
		for len(e.events) > 0 {
			ev := e.events.pop()
			e.now = ev.at
			e.transportEvent(ev.m, ev.h)
		}
	}
	for i := 0; i < 4; i++ { // warm the pools and the queue's backing array
		op()
	}
	return op
}

// TestReliableRoundTripDoesNotAllocate: pending entries and all four
// message records of a reliable round trip are pooled and its three
// transport events ride the queue unboxed, so it allocates nothing once
// warm.
func TestReliableRoundTripDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, reliableOp()); n != 0 {
		t.Fatalf("reliable send+deliver+ack+timer allocates %v objects/op, want 0", n)
	}
}

// BenchmarkSendDeliver times sendDeliverOp's round trip;
// BenchmarkSendDeliverReliable times reliableOp's.
func BenchmarkSendDeliver(b *testing.B) {
	_, op := sendDeliverOp()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

func BenchmarkSendDeliverReliable(b *testing.B) {
	op := reliableOp()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}
