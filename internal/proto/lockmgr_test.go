package proto

import (
	"math/rand"
	"reflect"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	journal "aecdsm/internal/recover" // named so the builtin recover stays reachable
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// grantLog is a minimal coherence delta: like AEC it numbers tenures and
// hands every grantee an update set, and it records the grant stream.
type grantLog struct {
	m       *LockMgr
	grants  [][3]int // lock, grantee, 1 when served off the wait queue
	crashes int
}

func (g *grantLog) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	l := g.m.Lock(lock)
	us := l.Pred.Predicted()
	g.m.CommitGrant(s, lock, to, fromQueue, l.LastCount+1, us)
	q := 0
	if fromQueue {
		q = 1
	}
	g.grants = append(g.grants, [3]int{lock, to, q})
}

const sweepCycles = 7

func (g *grantLog) Crashed(node int) uint64 { g.crashes++; return sweepCycles }

// mgrRig is one lock-manager service on an engine that is never started:
// the test plays the manager nodes' service routines itself.
type mgrRig struct {
	*LockMgr
	eng *sim.Engine
	log *grantLog
	// per-processor client state: the lock it waits for or holds, or -1.
	waits, holds []int
	absorbed     int // grants of log already folded into waits/holds
}

func newMgrRig(policy lockpolicy.Kind, nprocs, nlocks int, shard, crashes bool) *mgrRig {
	p := memsys.Default().ForProcs(nprocs)
	p.LockPolicy = string(policy)
	p.ShardManagers = shard
	eng := sim.New(p, stats.NewRun("t", "t", nprocs))
	if crashes {
		eng.EnableFaults(fault.Config{Crashes: []fault.Crash{{Node: 0, At: 1, Down: 1}}})
	}
	r := &mgrRig{LockMgr: &LockMgr{}, eng: eng,
		waits: make([]int, nprocs), holds: make([]int, nprocs)}
	for i := range r.waits {
		r.waits[i], r.holds[i] = -1, -1
	}
	r.log = &grantLog{m: r.LockMgr}
	r.SetNumLocks(nlocks)
	r.InitLocks(eng, nil, 2, r.log)
	return r
}

// svc is the service context of a lock's manager node.
func (r *mgrRig) svc(lock int) *sim.Svc {
	return &sim.Svc{E: r.eng, P: r.eng.Procs[r.MgrOf(lock)]}
}

// step plays one action drawn from rng: an idle processor requests a
// lock, a holder releases (leaving AEC-like chain state behind), a waiter
// does nothing — or, one time in sixteen, the barrier manager resets every
// lock's chain, as AEC's barrier does.
func (r *mgrRig) step(rng *rand.Rand) {
	p := rng.Intn(r.nprocs)
	switch {
	case rng.Intn(16) == 0:
		r.ResetChains(&sim.Svc{E: r.eng, P: r.eng.Procs[BarMgr]})
	case r.holds[p] >= 0:
		lock := r.holds[p]
		l := r.Lock(lock)
		r.holds[p] = -1
		pages := []int{lock, 10 + rng.Intn(5)}
		r.LockRelease(r.svc(lock), lock, p, l.Count, l.US, pages)
	case r.waits[p] < 0:
		lock := rng.Intn(r.NumLocks())
		r.waits[p] = lock
		r.LockRequest(r.svc(lock), lock, p)
	}
	// Absorb the grants the action produced.
	for _, g := range r.log.grants[r.absorbed:] {
		r.waits[g[1]], r.holds[g[1]] = -1, g[0]
	}
	r.absorbed = len(r.log.grants)
}

// lockView is the comparable state of one managed lock: the image and the
// wait queue in arrival order.
type lockView struct {
	Img     journal.Image
	Waiters []int
}

func (r *mgrRig) view(lock int) lockView {
	l := r.Lock(lock)
	return lockView{l.Image, l.Pred.Waiters(nil)}
}

// destroy wipes what a crash of node destroys — the image and the wait
// queue of every lock it manages — and returns the lost state.
func (r *mgrRig) destroy(node int) map[int]lockView {
	lost := map[int]lockView{}
	for lock := 0; lock < r.NumLocks(); lock++ {
		if r.MgrOf(lock) != node {
			continue
		}
		lost[lock] = r.view(lock)
		l := r.Lock(lock)
		l.Image = journal.Image{}
		l.Pred.RecoverReset()
	}
	return lost
}

func (r *mgrRig) policyCounters() (bypasses, renewals uint64) {
	for _, p := range r.eng.Procs {
		bypasses += p.Stats.GrantBypasses
		renewals += p.Stats.LeaseRenewals
	}
	return
}

// TestLockMgrFailoverAtEveryPrefix drives two managers with the same
// random request/release stream under each grant policy. One never
// crashes. The other loses a manager node before every action — its
// locks' images and queues really are wiped — and fails over from the
// journal. The rebuilt state must equal the lost state (chains a barrier
// reset included: replay must not resurrect them), and because the
// run continues on the rebuilt queues, every later grant decision, the
// bypass and renewal counters (whose policy-side bookkeeping — bypass
// counts per waiter, lease tenure — only replay can restore) and the
// whole predictor must stay equal to the manager that never crashed.
func TestLockMgrFailoverAtEveryPrefix(t *testing.T) {
	for _, pol := range lockpolicy.Kinds() {
		for _, shard := range []bool{false, true} {
			const nprocs, nlocks, steps = 8, 3, 1500
			ref := newMgrRig(pol, nprocs, nlocks, shard, true)
			crashy := newMgrRig(pol, nprocs, nlocks, shard, true)
			rngRef, rngCrashy := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
			victims := rand.New(rand.NewSource(7))
			for i := 0; i < steps; i++ {
				node := victims.Intn(nprocs)
				lost := crashy.destroy(node)
				crashy.onCrash(node)
				for lock, want := range lost {
					if got := crashy.view(lock); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s shard=%v step %d: lock %d rebuilt as %+v, lost state was %+v",
							pol, shard, i, lock, got, want)
					}
				}
				ref.step(rngRef)
				crashy.step(rngCrashy)
				if got, want := crashy.log.grants, ref.log.grants; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shard=%v step %d: grant stream diverged after failover: grant %d is %v, uncrashed manager granted %v",
						pol, shard, i, len(want), got[len(got)-1:], want[len(want)-1:])
				}
			}
			for lock := 0; lock < nlocks; lock++ {
				if got, want := crashy.view(lock), ref.view(lock); !reflect.DeepEqual(got, want) {
					t.Errorf("%s shard=%v: lock %d ended as %+v, want %+v", pol, shard, lock, got, want)
				}
				if !reflect.DeepEqual(crashy.Lock(lock).Pred, ref.Lock(lock).Pred) {
					t.Errorf("%s shard=%v: lock %d predictor (queue bookkeeping included) differs from the uncrashed one",
						pol, shard, lock)
				}
			}
			gb, gr := crashy.policyCounters()
			wb, wr := ref.policyCounters()
			if gb != wb || gr != wr {
				t.Errorf("%s shard=%v: %d bypasses %d renewals, uncrashed manager had %d and %d",
					pol, shard, gb, gr, wb, wr)
			}
			if len(ref.log.grants) < steps/4 {
				t.Fatalf("%s: only %d grants in %d steps; the stream is not exercising the queue",
					pol, len(ref.log.grants), steps)
			}
			switch pol {
			case lockpolicy.Affinity:
				if wb == 0 {
					t.Errorf("affinity stream never bypassed a waiter; bypass replay is untested")
				}
			case lockpolicy.Lease:
				if wr == 0 {
					t.Errorf("lease stream never renewed; tenure replay is untested")
				}
			}
		}
	}
}

// TestLockMgrPlacement pins manager placement — round-robin, or the
// scaling architecture's hash sharding — and that a failover touches
// exactly the crashed node's locks.
func TestLockMgrPlacement(t *testing.T) {
	const nprocs, nlocks = 8, 24
	for _, shard := range []bool{false, true} {
		r := newMgrRig(lockpolicy.FIFO, nprocs, nlocks, shard, true)
		spread := map[int]bool{}
		for lock := 0; lock < nlocks; lock++ {
			want := lock % nprocs
			if shard {
				want = memsys.ShardAssign(lock, nprocs)
			}
			if got := r.MgrOf(lock); got != want {
				t.Errorf("shard=%v: lock %d managed by %d, want %d", shard, lock, got, want)
			}
			spread[r.MgrOf(lock)] = true
			r.LockRequest(r.svc(lock), lock, lock%nprocs) // every lock held, journaled
		}
		if len(spread) < nprocs/2 {
			t.Errorf("shard=%v: %d locks landed on only %d of %d managers", shard, nlocks, len(spread), nprocs)
		}
		const node = 3
		for lock := 0; lock < nlocks; lock++ {
			r.Lock(lock).Holder = -2 // corrupt every image
		}
		r.onCrash(node)
		for lock := 0; lock < nlocks; lock++ {
			want := -2
			if r.MgrOf(lock) == node {
				want = lock % nprocs // restored from the journal
			}
			if got := r.Lock(lock).Holder; got != want {
				t.Errorf("shard=%v: after node %d failed over, lock %d (manager %d) has holder %d, want %d",
					shard, node, lock, r.MgrOf(lock), got, want)
			}
		}
	}
}

// TestLockMgrRestartSurrendersCostOnce checks the failover cost: trap plus
// one list pass per replayed log plus the protocol's own sweep, summed
// over the crashes of a node and handed to the engine exactly once.
func TestLockMgrRestartSurrendersCostOnce(t *testing.T) {
	const nprocs = 4
	r := newMgrRig(lockpolicy.FIFO, nprocs, 6, false, true)
	r.LockRequest(r.svc(1), 1, 0) // grant:   lock 1 (manager 1), 1 record
	r.LockRequest(r.svc(1), 1, 2) // enqueue:                     2 records
	r.LockRequest(r.svc(5), 5, 3) // grant:   lock 5 (manager 1), 1 record
	r.LockRequest(r.svc(2), 2, 3) // lock 2 is node 2's, not replayed by node 1
	pp := &r.eng.Params
	want := pp.InterruptCycles + pp.ListCycles(1+2) + pp.ListCycles(1+1) + sweepCycles
	r.onCrash(1)
	r.onCrash(1)
	if r.log.crashes != 2 {
		t.Fatalf("protocol sweep ran %d times for 2 crashes", r.log.crashes)
	}
	if got := r.onRestart(1); got != 2*want {
		t.Errorf("restart surrendered %d cycles, want %d for two crashes", got, 2*want)
	}
	if got := r.onRestart(1); got != 0 {
		t.Errorf("second restart surrendered %d cycles again", got)
	}
	if got := r.onRestart(2); got != 0 {
		t.Errorf("node 2 never crashed but owes %d cycles", got)
	}
}

// TestLockMgrUnarmed checks that a schedule without crashes journals
// nothing, and that a Grant hook which forgets to commit is caught.
func TestLockMgrUnarmed(t *testing.T) {
	r := newMgrRig(lockpolicy.FIFO, 4, 2, false, false)
	r.LockRequest(r.svc(0), 0, 1)
	r.LockRequest(r.svc(0), 0, 2)
	r.LockRelease(r.svc(0), 0, 1, 1, nil, nil)
	if r.rep != nil {
		t.Error("replicator armed without crashes in the schedule")
	}
	for i, p := range r.eng.Procs {
		if p.Stats.ReplicaLogBytes != 0 {
			t.Errorf("proc %d shipped %d journal bytes without crashes in the schedule", i, p.Stats.ReplicaLogBytes)
		}
	}
	if want := [][3]int{{0, 1, 0}, {0, 2, 1}}; !reflect.DeepEqual(r.log.grants, want) {
		t.Errorf("grants %v, want %v", r.log.grants, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("a Grant hook that never commits went unnoticed")
		}
	}()
	m := &LockMgr{}
	m.InitLocks(r.eng, nil, 2, forgetful{})
	m.LockRequest(&sim.Svc{E: r.eng, P: r.eng.Procs[0]}, 0, 1)
}

type forgetful struct{}

func (forgetful) Grant(*sim.Svc, int, int, bool) {}
func (forgetful) Crashed(int) uint64             { return 0 }

// mgrProto runs the lock service's own messages over the ideal memory:
// Request to acquire, SendGrant to grant, Relinquish to release. Each
// grant notes the node it was decided at, carries its decision number as
// its payload and its lock-grant arguments, and the acquirer notes when it
// consumed which grant.
type mgrProto struct {
	Ideal
	LockMgr
	decided  []grantRec
	consumed [][2]uint64 // by acquire: decision number, acquirer's clock
}

// grantRec is one grant decision: the lock, the node deciding it and its
// clock once the grant was sent, and the acquirer.
type grantRec struct {
	lock, node, to int
	sent           sim.Time
}

func (p *mgrProto) SetNumLocks(n int) { p.LockMgr.SetNumLocks(n) }

func (p *mgrProto) Attach(e *sim.Engine, s *mem.Space, ctxs []*Ctx) {
	p.Ideal.Attach(e, s, ctxs)
	p.InitLocks(e, ctxs, 2, p)
}

func (p *mgrProto) Acquire(c *Ctx, lock int) {
	p.Request(c, lock, 8)
	n := c.Await(stats.Synch, nil).(int)
	p.consumed = append(p.consumed, [2]uint64{uint64(n), c.P.Clock})
}

func (p *mgrProto) Release(c *Ctx, lock int) { p.Relinquish(c, lock) }

func (p *mgrProto) Grant(s *sim.Svc, lock, to int, fromQueue bool) {
	p.CommitGrant(s, lock, to, fromQueue, 0, nil)
	n := len(p.decided)
	p.SendGrant(s, to, lock, 8, n, 1000+n, -n)
	p.decided = append(p.decided, grantRec{lock: lock, node: s.P.ID, to: to, sent: s.Now})
}

func (p *mgrProto) Crashed(int) uint64 { return 0 }

// TestLockMgrRequestLandsAtManager: every processor takes every lock
// twice through Request and Relinquish, under round-robin and sharded
// placement; each grant is decided at the lock's manager, every request
// is granted, and no release leaves chain state behind.
func TestLockMgrRequestLandsAtManager(t *testing.T) {
	const nprocs, nlocks = 8, 5
	for _, shard := range []bool{false, true} {
		params := memsys.Default().ForProcs(nprocs)
		params.ShardManagers = shard
		pr := &mgrProto{Ideal: *NewIdeal(0)}
		m := Assemble(params, pr, Script{Homes: []int{0}, Locks: nlocks, Do: func(c *Ctx) {
			for range 2 {
				for lock := range nlocks {
					c.Acquire(lock)
					c.Compute(100)
					c.Release(lock)
				}
			}
		}}, nil, nil, nil)
		if m.Run() {
			t.Fatalf("shard %v: deadlocked", shard)
		}
		if got, want := len(pr.decided), 2*nprocs*nlocks; got != want {
			t.Errorf("shard %v: %d grants, want %d", shard, got, want)
		}
		for _, d := range pr.decided {
			if mgr := pr.MgrOf(d.lock); d.node != mgr {
				t.Errorf("shard %v: lock %d granted at node %d, its manager is %d", shard, d.lock, d.node, mgr)
			}
		}
		for lock := range nlocks {
			if l := pr.Lock(lock); l.LastReleaser < 0 || l.LastUS != nil || l.CumPages != nil {
				t.Errorf("shard %v: lock %d ends %+v, want released with no chain state", shard, lock, l.Image)
			}
		}
	}
}

// TestLockMgrRelinquish: the plain release's handler charges one list
// element on top of what LockRelease charges for the same release, leaves
// no chain state, and, with crashes armed, journals one OpRelease.
func TestLockMgrRelinquish(t *testing.T) {
	for _, crashes := range []bool{false, true} {
		plain := newMgrRig(lockpolicy.FIFO, 4, 2, false, crashes)
		direct := newMgrRig(lockpolicy.FIFO, 4, 2, false, crashes)
		for _, r := range []*mgrRig{plain, direct} {
			r.LockRequest(r.svc(1), 1, 2)
		}
		// Both start once the grant's journal record has left the I/O bus.
		s, want := plain.svc(1), direct.svc(1)
		s.Now, want.Now = 1_000_000, 1_000_000
		plain.handleRelinquish(s, &sim.Msg{From: 2, To: plain.MgrOf(1), Payload: 1})
		direct.LockRelease(want, 1, 2, 0, nil, nil)
		if got, extra := s.Now-want.Now, plain.eng.Params.ListCycles(1); got != extra {
			t.Errorf("crashes %v: Relinquish charged %d cycles beyond LockRelease, want %d", crashes, got, extra)
		}
		l := plain.Lock(1)
		if l.Held || l.LastReleaser != 2 || l.LastCount != 0 || l.LastUS != nil || l.CumPages != nil {
			t.Errorf("crashes %v: lock 1 after Relinquish: %+v", crashes, l.Image)
		}
		if !crashes {
			continue
		}
		recs := plain.rep.Records(1)
		if len(recs) != 2 || recs[1].Op != journal.OpRelease || recs[1].Proc != 2 {
			t.Errorf("crashes %v: lock 1's journal %+v, want a grant then one release by 2", crashes, recs)
		}
	}
}

// TestLockMgrSendGrant: a grant's lock-grant event is emitted at its
// acquirer when the grant is delivered — after the grantor sent it (at
// once, to the grantor itself), no later than the acquirer consumed it —
// with the lock and the arguments
// the grantor passed, and the acquirer consumes each grant's payload once.
func TestLockMgrSendGrant(t *testing.T) {
	const nprocs, nlocks = 4, 3
	pr := &mgrProto{Ideal: *NewIdeal(0)}
	ring := trace.NewRing(1 << 16)
	m := Assemble(memsys.Default().ForProcs(nprocs), pr, Script{Homes: []int{0}, Locks: nlocks, Do: func(c *Ctx) {
		for lock := range nlocks {
			c.Acquire(lock)
			c.Compute(100)
			c.Release(lock)
		}
	}}, ring, nil, nil)
	if m.Run() {
		t.Fatal("deadlocked")
	}
	consumedAt := make(map[int]sim.Time)
	for _, c := range pr.consumed {
		if _, dup := consumedAt[int(c[0])]; dup {
			t.Errorf("grant %d consumed twice", c[0])
		}
		consumedAt[int(c[0])] = c[1]
	}
	var grants []trace.Event
	for _, ev := range ring.Events() {
		if ev.Kind == trace.KindLockGrant {
			grants = append(grants, ev)
		}
	}
	if len(grants) != nprocs*nlocks || len(pr.decided) != nprocs*nlocks || len(consumedAt) != nprocs*nlocks {
		t.Fatalf("%d lock-grant events, %d grants sent, %d consumed; want %d each",
			len(grants), len(pr.decided), len(consumedAt), nprocs*nlocks)
	}
	for _, ev := range grants {
		n := int(ev.Arg) - 1000
		if n < 0 || n >= len(pr.decided) {
			t.Fatalf("lock-grant %+v names no grant sent", ev)
		}
		d := pr.decided[n]
		if ev.Proc != d.to || ev.Lock != d.lock || ev.Arg2 != int64(-n) {
			t.Errorf("grant %d (lock %d to %d): lock-grant %+v, want it at processor %d with arguments %d, %d",
				n, d.lock, d.to, ev, d.to, 1000+n, -n)
		}
		// A grant to the manager's own processor is delivered as it is sent.
		if early := ev.Cycle < d.sent || (ev.Cycle == d.sent && d.node != d.to); early || ev.Cycle > consumedAt[n] {
			t.Errorf("grant %d: lock-grant at cycle %d, want after it was sent (%d) and no later than it was consumed (%d)",
				n, ev.Cycle, d.sent, consumedAt[n])
		}
	}
}
