package proto

import (
	"aecdsm/internal/lap"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
	"aecdsm/internal/recover"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// lockKind is the kind of every message the lock service sends: requests,
// grants, plain releases and acquire notices. sim.Msg.Kind is written but
// never read (ROADMAP item 10(e)).
const lockKind = -1

// LockCoherence is the coherence delta a DSM protocol plugs into the
// shared lock manager: the paper frames AEC and TreadMarks as differing
// only in what travels with a grant, and these methods are exactly that
// difference. All of them run at the lock's manager node.
type LockCoherence interface {
	// Grant runs once the manager has decided to hand lock to proc to and
	// the predictor has absorbed the transfer. It computes what travels
	// with the grant (charging whatever that costs), commits the grant
	// with CommitGrant — passing fromQueue through — and only then ships
	// the grant with SendGrant: the journal record must leave for the
	// backup before the grant leaves for the acquirer.
	Grant(s *sim.Svc, lock, to int, fromQueue bool)
	// Crashed scrubs whatever else of the protocol's state on node is
	// volatile (the managed locks were already failed over) and returns
	// the cost of doing so in cycles.
	Crashed(node int) uint64
}

// ManagedLock is the manager-side state of one lock variable: the LAP
// predictor that hosts its wait queue, and the tenure and last-release
// image. The image is by construction what replaying the lock's
// replication log yields, so failover is an assignment.
type ManagedLock struct {
	Pred *lap.Predictor
	recover.Image
}

// LockMgr is the distributed lock-manager service every DSM protocol
// embeds: manager placement, the ownership request, the grant, the plain
// release and the acquire notice with their messages, the per-lock wait
// queue under the configured grant policy, the enqueue-or-grant and
// release-then-pick decisions with their list-processing charges,
// primary-backup journaling of every decision when the fault schedule
// contains crashes, and the failover that rebuilds a crashed manager's
// locks from the journal (docs/ROBUSTNESS.md). The state lives in Go memory but is only touched
// by messages addressed to the managing node, so its costs land on the
// right processor.
type LockMgr struct {
	e        *sim.Engine
	ctxs     []*Ctx
	coh      LockCoherence
	nprocs   int
	numLocks int
	locks    []ManagedLock

	// The service's handlers, bound once in InitLocks.
	requestH, grantH, relinquishH, noticeH sim.Handler

	// grants holds, by acquirer, the lock-grant event of the grant in
	// flight to it. An acquirer asks for one grant at a time and consumes
	// it before it can ask again, so one slot each is enough.
	grants []grantEvent

	// rep is the replication log, nil unless the fault schedule can crash
	// a node: runs without crash faults carry no replication traffic.
	rep *recover.Replicator
	// failoverCost accumulates, by crashed node, the failover work done
	// at the crash instant; the engine charges it to the node at restart.
	failoverCost []uint64
}

// SetNumLocks implements NumLocksProvider; it must precede InitLocks.
func (m *LockMgr) SetNumLocks(n int) {
	if n > m.numLocks {
		m.numLocks = n
	}
}

// NumLocks returns the number of lock variables managed.
func (m *LockMgr) NumLocks() int { return len(m.locks) }

// LockLAP returns the LAP prediction statistics recorded at one lock's
// manager (Table 3 of the paper; passive under TreadMarks, §5.1).
func (m *LockMgr) LockLAP(lock int) lap.Stats { return m.locks[lock].Pred.Stats }

// Lock returns the manager-side state of one lock.
func (m *LockMgr) Lock(lock int) *ManagedLock { return &m.locks[lock] }

// grantEvent is what the lock-grant event of a grant in flight reports.
type grantEvent struct{ lock, arg, arg2 int }

// InitLocks builds the managers at Attach time: one predictor per lock
// with update sets of size ns under the machine's grant policy, wired to
// the engine's tracer, and grants landing in the processors' contexts.
func (m *LockMgr) InitLocks(e *sim.Engine, ctxs []*Ctx, ns int, coh LockCoherence) {
	m.e, m.ctxs, m.coh, m.nprocs = e, ctxs, coh, len(e.Procs)
	m.requestH, m.grantH = m.handleRequest, m.handleGrant
	m.relinquishH, m.noticeH = m.handleRelinquish, m.handleNotice
	m.grants = make([]grantEvent, m.nprocs)
	pol, err := lockpolicy.Parse(e.Params.LockPolicy)
	if err != nil {
		panic("proto: " + err.Error())
	}
	m.locks = make([]ManagedLock, max(m.numLocks, 1))
	for i := range m.locks {
		p := lap.New(m.nprocs, ns)
		p.SetPolicy(pol)
		if e.Tracer.On() {
			p.Tracer, p.Lock, p.Mgr, p.Clock = e.Tracer, i, m.MgrOf(i), e.Now
		}
		m.locks[i] = ManagedLock{Pred: p, Image: recover.Image{Holder: -1, LastReleaser: -1}}
	}
	if e.Faults != nil && e.Faults.HasCrashes() {
		m.rep = recover.NewReplicator(len(m.locks))
		m.failoverCost = make([]uint64, m.nprocs)
		e.OnCrash(m.onCrash)
		e.OnRestart(m.onRestart)
	}
}

// MgrOf returns the managing processor of a lock: round-robin as in the
// paper (§3.2), or hash-sharded under the scaling architecture, which
// decorrelates manager placement from application lock numbering
// (docs/SCALING.md).
func (m *LockMgr) MgrOf(lock int) int {
	if m.e.Params.ShardManagers {
		return memsys.ShardAssign(lock, m.nprocs)
	}
	return lock % m.nprocs
}

// Request emits lock-request and sends c's ownership request for lock,
// bytes on the wire, to the lock's manager, whose LockRequest answers it
// with a grant now or off the wait queue later. The protocol awaits the
// grant's payload (c.Await).
func (m *LockMgr) Request(c *Ctx, lock, bytes int) {
	c.asking()
	mgr := m.MgrOf(lock)
	m.e.Tracer.Lock(c.P.Clock, c.ID, trace.KindLockRequest, lock, int64(mgr), 0)
	m.e.SendFrom(c.P, stats.Synch, mgr, lockKind, bytes, lock, m.requestH)
}

func (m *LockMgr) handleRequest(s *sim.Svc, msg *sim.Msg) {
	m.LockRequest(s, msg.Payload.(int), msg.From)
}

// SendGrant sends the grant of lock to processor to from s's node — the
// manager, or the node that builds the grant for it (TreadMarks' last
// releaser): bytes on the wire, and payload what the acquirer's Await
// returns. At delivery the acquirer emits lock-grant with arg and arg2.
func (m *LockMgr) SendGrant(s *sim.Svc, to, lock, bytes int, payload any, arg, arg2 int) {
	m.grants[to] = grantEvent{lock: lock, arg: arg, arg2: arg2}
	s.Send(to, lockKind, bytes, payload, m.grantH)
}

func (m *LockMgr) handleGrant(s *sim.Svc, msg *sim.Msg) {
	g := &m.grants[msg.To]
	m.e.Tracer.Lock(s.Now, msg.To, trace.KindLockGrant, g.lock, int64(g.arg), int64(g.arg2))
	m.ctxs[msg.To].Land(s, msg.Payload)
}

// Relinquish sends c's release of lock to the lock's manager: 8 bytes,
// one list element to absorb, and no chain state left behind — the
// release of a protocol whose next acquirer inherits nothing from the
// manager (TreadMarks, Munin).
func (m *LockMgr) Relinquish(c *Ctx, lock int) {
	m.e.SendFrom(c.P, stats.Synch, m.MgrOf(lock), lockKind, 8, lock, m.relinquishH)
}

func (m *LockMgr) handleRelinquish(s *sim.Svc, msg *sim.Msg) {
	s.ChargeList(1)
	m.LockRelease(s, msg.Payload.(int), msg.From, 0, nil, nil)
}

// LockNotice sends an acquire notice to the lock's manager, feeding the
// LAP virtual queue.
func (m *LockMgr) LockNotice(c *Ctx, lock int) {
	m.e.SendFrom(c.P, stats.Synch, m.MgrOf(lock), lockKind, 8, lock, m.noticeH)
}

func (m *LockMgr) handleNotice(s *sim.Svc, msg *sim.Msg) {
	s.ChargeList(1)
	m.locks[msg.Payload.(int)].Pred.Notice(msg.From)
}

// journal replicates one manager decision to the backup before it takes
// effect. The record's lists are snapshotted here, and only when armed.
func (m *LockMgr) journal(s *sim.Svc, rec recover.Record) {
	if m.rep == nil {
		return
	}
	rec.US = append([]int(nil), rec.US...)
	rec.Pages = append([]int(nil), rec.Pages...)
	m.rep.Ship(s, m.nprocs, rec)
}

// LockRequest is the manager's service routine for an ownership request:
// queue the requester behind the holder, or grant at once.
func (m *LockMgr) LockRequest(s *sim.Svc, lock, from int) {
	l := &m.locks[lock]
	s.ChargeList(l.Pred.RequestElems())
	if l.Held {
		m.journal(s, recover.Record{Lock: lock, Op: recover.OpEnqueue, Proc: from})
		l.Pred.Enqueue(from)
		return
	}
	m.grant(s, lock, from, false)
}

// LockRelease is the manager's service routine for a release, called once
// the release message has been decoded and charged for — by Relinquish's
// handler, or by a protocol that sends its own release: record
// the chain state the release leaves behind — the releaser's acquire
// count, the update set and the cumulative page list the next acquirer
// inherits; zero and nil for protocols that keep none — and hand the lock
// on per the grant policy. GrantElems is 0 for the head-popping
// disciplines, so the default charges nothing extra.
func (m *LockMgr) LockRelease(s *sim.Svc, lock, from, count int, us, pages []int) {
	l := &m.locks[lock]
	m.journal(s, recover.Record{Lock: lock, Op: recover.OpRelease, Proc: from,
		Count: count, US: us, Pages: pages})
	l.Image = recover.Image{Holder: -1,
		LastReleaser: from, LastCount: count, LastUS: us, CumPages: pages}
	s.ChargeList(l.Pred.GrantElems())
	if pk := l.Pred.PickNext(from); pk.Proc >= 0 {
		if pk.Bypassed > 0 {
			s.P.Stats.GrantBypasses++
		}
		if pk.Renewal {
			s.P.Stats.LeaseRenewals++
		}
		m.grant(s, lock, pk.Proc, true)
	}
}

// ResetChains discards every lock's chain state — the update set and the
// cumulative page list its last release left behind — keeping tenure, last
// releaser and counts. AEC's barrier manager calls it once a barrier has
// made everyone coherent. It is journaled like every other decision, from
// the node that takes it, so a manager failing over after the barrier does
// not get the finished step's chains back.
func (m *LockMgr) ResetChains(s *sim.Svc) {
	for lock := range m.locks {
		l := &m.locks[lock]
		if len(l.LastUS)+len(l.CumPages) > 0 {
			m.journal(s, recover.Record{Lock: lock, Op: recover.OpReset})
		}
		l.LastUS, l.CumPages = nil, nil
	}
}

// grant hands the lock to proc to. fromQueue marks grants that consumed a
// queued waiter, which the journal must know to replay the queue removal
// at failover.
func (m *LockMgr) grant(s *sim.Svc, lock, to int, fromQueue bool) {
	l := &m.locks[lock]
	l.Pred.Granted(to, l.LastReleaser)
	m.coh.Grant(s, lock, to, fromQueue)
	if !l.Held || l.Holder != to {
		panic("proto: LockCoherence.Grant returned without CommitGrant")
	}
}

// CommitGrant journals the grant and marks the lock held. count and us
// are what the grant record carries beyond the grantee: its acquire count
// and the update set computed for its tenure (zero and nil for protocols
// that keep neither). Lock(lock) then holds the new tenure next to the
// last release, which is all a grant message is built from.
func (m *LockMgr) CommitGrant(s *sim.Svc, lock, to int, fromQueue bool, count int, us []int) {
	l := &m.locks[lock]
	m.journal(s, recover.Record{Lock: lock, Op: recover.OpGrant, Proc: to,
		FromQueue: fromQueue, Count: count, US: us})
	l.Held, l.Holder, l.Count, l.US = true, to, count, us
}

// onCrash is the engine's crash hook: fail the node's managed locks over
// to the replication log, then let the protocol scrub what else the crash
// destroyed. The log is prefix-complete at every event boundary, so the
// rebuilt queue (bypass counters and lease tenure included) and image are
// identical to the lost ones: a crash changes WHEN the manager answers,
// never WHAT it answers.
func (m *LockMgr) onCrash(node int) {
	pp := &m.e.Params
	cost := pp.InterruptCycles // failover trap at the backup
	for lock := range m.locks {
		if m.MgrOf(lock) != node {
			continue
		}
		recs := m.rep.Records(lock)
		m.locks[lock].Image = recover.Replay(recs, m.locks[lock].Pred)
		cost += pp.ListCycles(1 + len(recs))
	}
	m.failoverCost[node] += cost + m.coh.Crashed(node)
}

// onRestart is the engine's restart hook: it surrenders the accumulated
// failover cost, which the engine charges to the restarted node.
func (m *LockMgr) onRestart(node int) uint64 {
	c := m.failoverCost[node]
	m.failoverCost[node] = 0
	return c
}
