package sim

import (
	"fmt"
	"unsafe"

	"aecdsm/internal/memsys"
	"aecdsm/internal/network"
	"aecdsm/internal/stats"
)

// Release ends the run the engine served, as Region.Release ends a
// region's: it drops everything the run put in it — the processors'
// coroutines and statistics, the bodies, the failover hooks, the tracer,
// the injector, the observer, the events left queued, the caches' tag
// slots — and keeps its storage for Renew: the processors with their
// caches, TLBs and buses, the mesh's link array, the event queue's backing
// array, the message, service and pending-entry pools and the transport's
// pair rows. An idle engine so keeps no ended run alive, and it has no
// processors and no statistics to read. Releasing twice is harmless.
func (e *Engine) Release() {
	// Queued events (timers and acks past the last body's return, a
	// deadlocked run's queue) give their records back to the pool;
	// nothing else points at them.
	for i := range e.events {
		if m := e.events[i].m; m != nil {
			e.msgs.Put(m)
		}
	}
	clear(e.events)
	for _, pr := range e.Procs {
		*pr = Proc{Cache: pr.Cache, TLB: pr.TLB, MemBus: pr.MemBus, IOBus: pr.IOBus}
		pr.Cache.Renew(e.Params.CacheBytes, e.Params.CacheLineBytes)
	}
	if e.Net != nil {
		e.Net.Renew(e.Params)
	}
	e.transport.renew()
	clear(e.bodies)
	clear(e.crashFns)
	clear(e.restartFns)
	*e = Engine{
		Net:        e.Net,
		Procs:      e.Procs[:0],
		events:     e.events[:0],
		msgs:       e.msgs,
		svcs:       e.svcs,
		bodies:     e.bodies[:0],
		transport:  e.transport,
		crashFns:   e.crashFns[:0],
		restartFns: e.restartFns[:0],
	}
}

// Renew makes e, whose run has ended or never started, the engine New(p,
// run) returns, in place (DESIGN.md, "What outlives a run"): it releases
// e, then renews the storage Release kept, each part reset to a new one's
// state. Storage is kept by capacity, not by parameters, so an engine
// serves machines of any size and renewing for one no larger than the
// last allocates nothing.
func (e *Engine) Renew(p memsys.Params, run *stats.Run) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid params: %v", err))
	}
	e.Release()
	if e.Net == nil {
		e.Net = new(network.Mesh)
	}
	e.Net.Renew(p)
	bodies := e.bodies
	if cap(bodies) < p.NumProcs {
		bodies = make([]func(*Proc), 0, p.NumProcs)
	}
	e.Params, e.Run, e.Procs, e.bodies = p, run, e.renewProcs(p, run), bodies[:p.NumProcs]
}

// renewProcs returns the n processors of the renewed machine, each reset
// to a new one's state: those the engine holds, beyond its last machine's
// size too, then new ones.
func (e *Engine) renewProcs(p memsys.Params, run *stats.Run) []*Proc {
	procs := e.Procs[:cap(e.Procs)]
	if len(procs) < p.NumProcs {
		// Exactly as many slots as processors: every slot up to the
		// capacity holds one.
		procs = append(make([]*Proc, 0, p.NumProcs), procs...)
	}
	procs = procs[:p.NumProcs]
	for i, pr := range procs {
		if pr == nil {
			pr = &Proc{Cache: new(memsys.Cache), TLB: new(memsys.TLB), MemBus: new(memsys.Bus), IOBus: new(memsys.Bus)}
			procs[i] = pr
		}
		*pr = Proc{ID: i, Eng: e, Stats: &run.Procs[i], Cache: pr.Cache, TLB: pr.TLB, MemBus: pr.MemBus, IOBus: pr.IOBus}
		pr.Cache.Renew(p.CacheBytes, p.CacheLineBytes)
		pr.TLB.Renew(p.TLBEntries)
		pr.MemBus.Renew(p.MemSetupCycles, p.MemPerWordCycles)
		pr.IOBus.Renew(p.IOBusSetupCycles, p.IOBusPerWordCycles)
	}
	return procs
}

// poison is what Poison writes over a released engine's clocks and
// counters: no run reaches a cycle or a count made of it.
const poison = 0xA5A5A5A5A5A5A5A5

// Poison overwrites what a reader holding a released engine's parts could
// take for a result — virtual time, every processor's clocks, the cache,
// TLB, bus and mesh counters — with 0xA5 bytes, so that such a reader
// reads garbage; Release has already dropped the run's statistics and
// processors. The lifetime tests poison an engine as its run is
// harvested; Renew starts over from any of it.
func (e *Engine) Poison() {
	e.now, e.seq = poison, poison
	for _, p := range e.Procs[:cap(e.Procs)] {
		p.Clock, p.horizon, p.wakeAt, p.svcBusyUntil = poison, poison, poison, poison
		p.stolen, p.stolenRec = poison, poison
		p.Cache.Hits, p.Cache.Misses = poison, poison
		p.TLB.Hits, p.TLB.Misses = poison, poison
		p.MemBus.BusyCycles, p.MemBus.WaitCycles = poison, poison
		p.IOBus.BusyCycles, p.IOBus.WaitCycles = poison, poison
	}
	if n := e.Net; n != nil {
		n.Messages, n.BytesMoved, n.HopsTotal, n.WaitCycles, n.DegradedCycles = poison, poison, poison, poison, poison
	}
}

// Size is the memory the engine keeps for its next run, in bytes: its
// processors (beyond the last machine's size too) with their caches, TLB
// entries and buses, the mesh's links, the event queue's and the bodies'
// backing arrays, the idle records of its pools and the transport's pair
// rows with their windows. It does not count the Go runtime's per-object
// overhead, nor a run's coroutines, which the run releases.
func (e *Engine) Size() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	n := int(unsafe.Sizeof(*e)) + cap(e.Procs)*ptr + cap(e.bodies)*ptr +
		cap(e.events)*int(unsafe.Sizeof(event{})) +
		e.msgs.Idle()*int(unsafe.Sizeof(Msg{})) + e.svcs.Idle()*int(unsafe.Sizeof(Svc{})) +
		e.transport.txs.Idle()*int(unsafe.Sizeof(pendingTx{}))
	if e.Net != nil {
		n += e.Net.Bytes()
	}
	for _, p := range e.Procs[:cap(e.Procs)] {
		n += int(unsafe.Sizeof(*p)+unsafe.Sizeof(*p.Cache)+2*unsafe.Sizeof(*p.MemBus)) + p.TLB.Bytes()
	}
	for _, rows := range [][][]pair{e.transport.pairs, e.transport.spare} {
		n += cap(rows) * int(unsafe.Sizeof([]pair(nil)))
		for _, row := range rows {
			n += cap(row) * int(unsafe.Sizeof(pair{}))
			for _, pr := range row[:cap(row)] {
				n += cap(pr.bits) * 8
			}
		}
	}
	return n
}

// Made reports how many records the engine's message, service-context and
// pending-entry pools have allocated since it was made; it stops growing
// once the pools fit the runs the engine serves.
func (e *Engine) Made() int {
	return e.msgs.Made() + e.svcs.Made() + e.transport.txs.Made()
}
