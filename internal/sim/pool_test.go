package sim

import (
	"testing"

	"aecdsm/internal/fault"
)

// TestMsgPoolRecycleReset: a freed message returns to the pool fully
// field-reset, and the next alloc reuses it (identity, not a copy).
func TestMsgPoolRecycleReset(t *testing.T) {
	e, _ := testEngine(2)
	m := e.allocMsg()
	m.From, m.To, m.Kind, m.Bytes = 1, 0, 7, 64
	m.Payload, m.SentAt, m.ArriveAt = "payload", 10, 20
	m.seq, m.attempt, m.op = 3, 2, opTracked
	e.freeMsg(m)
	if *m != (Msg{}) {
		t.Fatalf("freed message not reset: %+v", *m)
	}
	if got := e.allocMsg(); got != m {
		t.Fatal("alloc after free should reuse the pooled message")
	} else if *got != (Msg{}) {
		t.Fatalf("pooled message not reset at alloc: %+v", *got)
	}
}

// TestSvcPoolRecycleReset: same contract for service contexts.
func TestSvcPoolRecycleReset(t *testing.T) {
	e, _ := testEngine(2)
	s := e.allocSvc()
	s.E, s.P, s.Now, s.m = e, e.Procs[1], 42, &Msg{}
	e.freeSvc(s)
	if *s != (Svc{}) {
		t.Fatalf("freed service context not reset: %+v", *s)
	}
	if got := e.allocSvc(); got != s {
		t.Fatal("alloc after free should reuse the pooled context")
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

	m := e.allocMsg()
	m.From, m.To = 0, 0
	e.deliver(m, h)
	if len(e.msgFree) != 1 {
		t.Fatalf("untracked message not recycled: pool size %d", len(e.msgFree))
	}
	if len(e.svcFree) != 1 {
		t.Fatalf("service context not recycled: pool size %d", len(e.svcFree))
	}

	tx := &pendingTx{h: h, refs: 2} // the original's reference and the copy's
	cp := e.allocMsg()
	cp.From, cp.To, cp.op, cp.tx = 0, 1, opTracked, tx
	e.deliver(cp, h)
	if len(e.msgFree) != 1 || *cp != (Msg{}) {
		t.Fatalf("tracked copy not recycled and reset: pool size %d, %+v", len(e.msgFree), *cp)
	}
	if tx.refs != 1 || len(e.rel.txFree) != 0 {
		t.Fatalf("pending entry: refs %d, pool %d; want the original's reference left", tx.refs, len(e.rel.txFree))
	}
	orig := e.allocMsg()
	orig.tx = tx
	e.freeMsg(orig)
	if len(e.rel.txFree) != 1 || !txIsReset(tx) {
		t.Fatalf("last reference gone, entry not recycled and reset: pool %d, %+v", len(e.rel.txFree), *tx)
	}
}

func txIsReset(tx *pendingTx) bool { return tx.m == nil && tx.h == nil && tx.refs == 0 }

// TestPooledSendDeliverSteadyState: a full send→deliver round trip in
// steady state allocates nothing — the pools absorb message and service
// context, the event rides the queue unboxed, and no closure is built.
func TestPooledSendDeliverSteadyState(t *testing.T) {
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
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("send+deliver allocates %v objects/op, want 0", n)
	}
}

// BenchmarkSendDeliver measures the pooled message path end to end:
// sendOpt (pool alloc, buses, network reservation, unboxed delivery
// event) through pop and deliver (interrupt, handler, recycle). Must be
// 0 allocs/op in steady state (asserted in CI).
func BenchmarkSendDeliver(b *testing.B) {
	e, _ := testEngine(2)
	h := func(s *Svc, m *Msg) {}
	p0 := e.Procs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.sendOpt(p0, e.now, 1, 0, 64, nil, h, true)
		ev := e.events.pop()
		e.now = ev.at
		e.deliver(ev.m, ev.h)
	}
}

// BenchmarkSendDeliverReliable is BenchmarkSendDeliver through the
// reliable transport, on a fault schedule that injects nothing: one op is
// a send, its tracked delivery (dedup window, handler), the ack's flight
// back, and the retransmission timer firing as a no-op. Pending entries
// and all four message records are pooled and the three transport events
// ride the queue unboxed, so this too is 0 allocs/op once warm (asserted
// in CI).
func BenchmarkSendDeliverReliable(b *testing.B) {
	e, _ := testEngine(2)
	e.EnableFaults(fault.Config{})
	h := func(s *Svc, m *Msg) {}
	p0 := e.Procs[0]
	op := func() {
		e.sendOpt(p0, e.now, 1, 0, 64, nil, h, true)
		for e.events.Len() > 0 {
			ev := e.events.pop()
			e.now = ev.at
			e.transportEvent(ev.m, ev.h)
		}
	}
	for i := 0; i < 4; i++ { // warm the pools and the queue's backing array
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
