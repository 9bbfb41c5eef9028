package main

import (
	"io"
	"time"

	"aecdsm/internal/apps"
	"aecdsm/internal/bitset"
	"aecdsm/internal/check"
	"aecdsm/internal/harness"
	"aecdsm/internal/lap"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/network"
	"aecdsm/internal/proto"
	"aecdsm/internal/recover"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Isolated probes: each times one layer's exported functions on their own,
// so a change to a kernel shows here before it is large enough to move a
// workload. A probe returns host nanoseconds per operation; the traced
// pass runs it for a fixed number of rounds and keeps the median round.

const probePage = 4096

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink uint64

// probe is one isolated measurement: round runs ops operations and returns
// how long they took. scale converts ns/op into the reported unit.
type probe struct {
	name  string
	unit  string
	scale float64
	ops   int
	round func(ops int) time.Duration
}

// timed turns a plain per-operation body into a round function.
func timed(op func(i int)) func(int) time.Duration {
	return func(ops int) time.Duration {
		start := time.Now()
		for i := 0; i < ops; i++ {
			op(i)
		}
		return time.Since(start)
	}
}

// runProbes measures every probe: rounds rounds each, median reported.
func runProbes(rounds int) []metric {
	var out []metric
	for _, p := range probes() {
		perOp := make([]float64, rounds)
		for r := range perOp {
			perOp[r] = float64(p.round(p.ops).Nanoseconds()) / float64(p.ops) * p.scale
		}
		out = append(out, metric{Name: p.name, Value: median(perOp), Unit: p.unit})
	}
	return out
}

// pagePair builds a (twin, cur) pair in the three shapes bench_test.go
// uses: clean (no modified word), sparse (one word in 256 bytes), dense
// (every word).
func pagePair(kind string) (twin, cur []byte) {
	twin = make([]byte, probePage)
	cur = make([]byte, probePage)
	for i := range twin {
		twin[i] = byte(i * 31)
		cur[i] = twin[i]
	}
	switch kind {
	case "sparse":
		for i := 0; i < probePage; i += 256 {
			cur[i] ^= 0xFF
		}
	case "dense":
		for i := 0; i < probePage; i += 4 {
			cur[i] ^= 0xFF
		}
	}
	return twin, cur
}

// makeDiff is one twin-compare of a page; a clean page yields no diff.
func makeDiff(twin, cur []byte) func(int) {
	return func(int) {
		if d := mem.MakeDiff(0, twin, cur, 4); d != nil {
			probeSink++
		}
	}
}

// sparseDiffs are two overlapping sparse diffs of one page.
func sparseDiffs() (*mem.Diff, *mem.Diff) {
	twin, cur := pagePair("sparse")
	shifted := append([]byte(nil), twin...)
	for i := 128; i < probePage; i += 512 {
		shifted[i] ^= 0xAA
	}
	return mem.MakeDiff(0, twin, cur, 4), mem.MakeDiff(0, twin, shifted, 4)
}

// newEngine builds an engine of n processors on the default node.
func newEngine(n int) *sim.Engine {
	return sim.New(memsys.Default().ForProcs(n), stats.NewRun("probe", "none", n))
}

// eventRound times Engine.At plus dispatch: a chain of ops events, each
// scheduling the next, while the only processor is parked.
func eventRound(ops int) time.Duration {
	eng := newEngine(1)
	left := ops
	var tick func()
	tick = func() {
		if left--; left == 0 {
			eng.Procs[0].Wake(eng.Now())
			return
		}
		eng.At(eng.Now()+1, tick)
	}
	eng.Spawn(0, func(p *sim.Proc) {
		eng.At(p.Clock+1, tick)
		p.Block(stats.Synch)
	})
	start := time.Now()
	eng.Start()
	return time.Since(start)
}

// handoffRound times the coroutine hand-off: two processors in lockstep,
// so every Advance(1) reaches the horizon and yields to the engine.
func handoffRound(ops int) time.Duration {
	eng := newEngine(2)
	for id := 0; id < 2; id++ {
		eng.Spawn(id, func(p *sim.Proc) {
			for i := 0; i < ops/2; i++ {
				p.Advance(1, stats.Busy)
			}
		})
	}
	start := time.Now()
	eng.Start()
	return time.Since(start)
}

// msgRound times the message path: processor 0 sends to node 1, whose
// handler replies, whose handler wakes processor 0 — two messages and one
// block/wake per round trip.
func msgRound(ops int) time.Duration {
	eng := newEngine(2)
	p0, p1 := eng.Procs[0], eng.Procs[1]
	done := false
	pong := func(s *sim.Svc, m *sim.Msg) { s.Wake(p0) }
	ping := func(s *sim.Svc, m *sim.Msg) { s.Send(0, 0, 64, nil, pong) }
	eng.Spawn(0, func(p *sim.Proc) {
		for i := 0; i < ops/2; i++ {
			eng.SendFrom(p, stats.Synch, 1, 0, 64, nil, ping)
			p.Block(stats.Synch)
		}
		done = true
		p1.Wake(p.Clock)
	})
	eng.Spawn(1, func(p *sim.Proc) {
		p.WaitUntil(func() bool { return done }, stats.Synch)
	})
	start := time.Now()
	eng.Start()
	return time.Since(start)
}

// accessProg reads one page of float64s over and over on one processor;
// under the ideal protocol that is the DSM access path and nothing else.
type accessProg struct {
	ops     int
	bulk    bool
	base    mem.Addr
	elapsed time.Duration
}

func (a *accessProg) Name() string  { return "probe-access" }
func (a *accessProg) NumLocks() int { return 1 }
func (a *accessProg) Err() error    { return nil }
func (a *accessProg) Init(s *mem.Space, nprocs int) {
	a.base = s.Alloc("probe.page", probePage, 0)
}

func (a *accessProg) Body(c *proto.Ctx) {
	const n = probePage / 8
	buf := make([]float64, n)
	var sum float64
	start := time.Now()
	if a.bulk {
		for i := 0; i < a.ops/n; i++ {
			c.ReadF64s(a.base, buf)
			sum += buf[i%n]
		}
	} else {
		for i := 0; i < a.ops; i++ {
			sum += c.ReadF64(a.base + mem.Addr(8*(i%n)))
		}
	}
	a.elapsed = time.Since(start)
	probeSink += uint64(sum)
}

func accessRound(bulk bool) func(int) time.Duration {
	return func(ops int) time.Duration {
		prog := &accessProg{ops: ops, bulk: bulk}
		harness.Run(memsys.Default().ForProcs(1), proto.NewIdeal(probePage), prog)
		return prog.elapsed
	}
}

// grantOp is one lock hand-off at the manager: a request queues, the
// policy picks it, the predictor scores its last prediction and computes
// the next update set.
func grantOp(n int) func(int) {
	p := lap.New(n, 2)
	holder := 0
	return func(i int) {
		p.Enqueue((holder + 1 + i%3) % n)
		pk := p.PickNext(holder)
		p.Granted(pk.Proc, holder)
		probeSink += uint64(len(p.UpdateSet(pk.Proc)))
		holder = pk.Proc
	}
}

// replayLog is a lock's replication log: eight waiters served in turn.
func replayLog() []recover.Record {
	var recs []recover.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, recover.Record{Op: recover.OpEnqueue, Proc: i})
	}
	for i := 0; i < 8; i++ {
		recs = append(recs,
			recover.Record{Op: recover.OpGrant, Proc: i, FromQueue: true, Count: i + 1, US: []int{(i + 1) % 8}},
			recover.Record{Op: recover.OpRelease, Proc: i, Count: i + 1, US: []int{(i + 1) % 8}, Pages: []int{i}})
	}
	return recs
}

// traceEvents is a short cycle of the event kinds the sinks aggregate.
func traceEvents() []trace.Event {
	kinds := []trace.Kind{trace.KindLockRequest, trace.KindLockGrant, trace.KindLockRelease, trace.KindMsgSend, trace.KindMsgDeliver}
	evs := make([]trace.Event, len(kinds))
	for i, k := range kinds {
		evs[i] = trace.Ev(uint64(100*i), i%16, k)
		evs[i].Lock = i % 4
		evs[i].Arg, evs[i].Arg2 = int64(i), 64
	}
	return evs
}

func probes() []probe {
	const ns, us = 1.0, 1e-3
	def := memsys.Default()

	mesh16, mesh256 := network.NewMesh(def), network.NewMesh(def.ForProcs(256))
	transfer := func(m *network.Mesh, n int) func(int) {
		now := uint64(0)
		return func(i int) {
			probeSink += m.Transfer(now, i%n, (i*7+3)%n, 256)
			now += 5
		}
	}

	cache := memsys.NewCache(def.CacheBytes, def.CacheLineBytes)
	tlb := memsys.NewTLB(def.TLBEntries)
	bus := memsys.NewBus(def.MemSetupCycles, def.MemPerWordCycles)

	cleanT, cleanC := pagePair("clean")
	sparseT, sparseC := pagePair("sparse")
	denseT, denseC := pagePair("dense")
	d1, d2 := sparseDiffs()
	merger := mem.NewMerger(probePage)
	var merged *mem.Diff
	merged, _ = merger.MergeInto(merged, d1, d2)
	dense := mem.MakeDiff(0, denseT, denseC, 4)
	target := make([]byte, probePage)

	space := mem.NewSpace(probePage)
	for i := 0; i < 16; i++ {
		space.Alloc("probe.region", 16*probePage, i)
	}
	pm := mem.NewProcMem(space, 0)

	queue := lockpolicy.New(lockpolicy.FIFO, nil)
	for i := 0; i < 8; i++ {
		queue.Enqueue(i)
	}

	set := bitset.New(1024)
	for i := 0; i < 1024; i += 3 {
		set = set.Add(i)
	}

	recs := replayLog()
	replayQ := lap.New(16, 2)

	evs := traceEvents()
	sink := trace.NewMetrics()
	jsonl := trace.NewJSONL(io.Discard)

	spawn := func(int) {
		eng := newEngine(16)
		for id := 0; id < 16; id++ {
			eng.Spawn(id, func(*sim.Proc) {})
		}
		probeSink += eng.Start()
	}
	minRun := func(int) {
		res := harness.Run(def, harness.NewProtocol(harness.ProtoAEC, 2), apps.NewMicroStencil(1, false))
		probeSink += res.Cycles()
	}

	return []probe{
		{"sim.event_ns", "ns", ns, 200000, eventRound},
		{"sim.handoff_ns", "ns", ns, 20000, handoffRound},
		{"sim.msg_ns", "ns", ns, 20000, msgRound},
		{"sim.spawn_us", "us", us, 20, timed(spawn)},
		{"network.transfer_ns_16", "ns", ns, 100000, timed(transfer(mesh16, 16))},
		{"network.transfer_ns_256", "ns", ns, 100000, timed(transfer(mesh256, 256))},
		{"memsys.cache_access_ns", "ns", ns, 500000, timed(func(i int) { probeSink += uint64(cache.Access(i*40, 8)) })},
		{"memsys.tlb_access_ns", "ns", ns, 500000, timed(func(i int) {
			if tlb.Access(i % 192) {
				probeSink++
			}
		})},
		{"memsys.bus_transfer_ns", "ns", ns, 500000, timed(func(i int) { probeSink += bus.Transfer(uint64(i)*40, 8) })},
		{"mem.makediff_clean_ns", "ns", ns, 20000, timed(makeDiff(cleanT, cleanC))},
		{"mem.makediff_sparse_ns", "ns", ns, 10000, timed(makeDiff(sparseT, sparseC))},
		{"mem.makediff_dense_ns", "ns", ns, 5000, timed(makeDiff(denseT, denseC))},
		{"mem.merge_steady_ns", "ns", ns, 20000, timed(func(int) { merged, _ = merger.MergeInto(merged, d1, d2) })},
		{"mem.merge_wrapper_ns", "ns", ns, 5000, timed(func(int) { probeSink += uint64(mem.MergeDiffs(probePage, d1, d2).DataBytes()) })},
		{"mem.apply_ns", "ns", ns, 20000, timed(func(int) { dense.Apply(target) })},
		{"mem.twin_ns", "ns", ns, 20000, timed(func(i int) { pm.MakeTwin(i % 16); pm.DropTwin(i % 16) })},
		{"mem.procmem_new_us", "us", us, 200, timed(func(int) { probeSink += uint64(mem.NewProcMem(space, 3).Pages()) })},
		{"proto.access_ns", "ns", ns, 200000, accessRound(false)},
		{"proto.bulk_access_ns", "ns", ns, 2000000, accessRound(true)},
		{"lap.grant_ns_16", "ns", ns, 50000, timed(grantOp(16))},
		{"lap.grant_ns_256", "ns", ns, 50000, timed(grantOp(256))},
		{"lockpolicy.queue_ns", "ns", ns, 200000, timed(func(i int) {
			queue.Enqueue(queue.PickNext(i % 8).Proc)
		})},
		{"bitset.foreach_ns_1024", "ns", ns, 20000, timed(func(int) { set.ForEach(func(b int) { probeSink += uint64(b) }) })},
		{"recover.replay_ns", "ns", ns / float64(len(recs)), 5000, timed(func(int) { probeSink += uint64(recover.Replay(recs, replayQ).LastCount) })},
		{"trace.metrics_sink_ns", "ns", ns, 200000, timed(func(i int) { sink.Trace(evs[i%len(evs)]) })},
		{"trace.jsonl_sink_ns", "ns", ns, 50000, timed(func(i int) { jsonl.Trace(evs[i%len(evs)]) })},
		{"harness.run_min_us", "us", us, 50, timed(minRun)},
		{"check.generate_us", "us", us, 20000, timed(func(i int) { probeSink += uint64(check.Generate(uint64(i), 0).Procs) })},
	}
}
