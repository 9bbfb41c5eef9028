package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/pool"
	"aecdsm/internal/stats"
)

// TestDedupUnderForcedDuplication: with every transmission duplicated, the
// handler still runs exactly once per message — the idempotence guarantee
// every protocol handler relies on.
func TestDedupUnderForcedDuplication(t *testing.T) {
	e, run := testEngine(2)
	e.EnableFaults(fault.Config{Seed: 11, Dup: 1})
	const n = 5
	count := 0
	e.Spawn(0, func(p *Proc) {
		for i := 0; i < n; i++ {
			e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
				s.Charge(10)
				count++
				s.Wake(e.Procs[1])
			})
		}
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count == n }, stats.Synch)
	})
	e.Start()
	if count != n {
		t.Fatalf("handler ran %d times for %d messages", count, n)
	}
	if got := run.Procs[1].DupMsgsSuppressed; got != n {
		t.Fatalf("DupMsgsSuppressed = %d, want %d (one duplicate per message)", got, n)
	}
	if run.Procs[1].AcksSent == 0 {
		t.Fatal("reliable delivery should ack")
	}
}

// TestRetransmitAfterDrop: under total loss every attempt below
// DefaultMaxAttempts vanishes and the last is guaranteed through, so
// delivery happens exactly once, after at least the sum of the backoff
// timeouts of the attempts before it.
func TestRetransmitAfterDrop(t *testing.T) {
	e, run := testEngine(2)
	e.EnableFaults(fault.Config{Seed: 1, Drop: 1})
	count := 0
	var sentAt, deliveredAt Time
	e.Spawn(0, func(p *Proc) {
		sentAt = p.Clock
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			deliveredAt = s.Now
			s.Wake(e.Procs[1])
		})
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count > 0 }, stats.Synch)
	})
	e.Start()
	if count != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", count)
	}
	const lost = fault.DefaultMaxAttempts - 1
	if run.Procs[0].Retransmits != lost {
		t.Fatalf("Retransmits = %d, want %d", run.Procs[0].Retransmits, lost)
	}
	if run.Procs[0].MsgsDropped != lost {
		t.Fatalf("MsgsDropped = %d, want %d", run.Procs[0].MsgsDropped, lost)
	}
	// Attempt a+1 fires RTO(a) after attempt a (backoff): delivery cannot
	// precede the accumulated timeouts.
	min := sentAt
	for a := 1; a <= lost; a++ {
		min += e.Faults.RTO(a)
	}
	if deliveredAt < min {
		t.Fatalf("delivered at %d, before the backoff floor %d", deliveredAt, min)
	}
	if run.Procs[0].Breakdown[stats.Recovery] == 0 && run.Procs[0].RecoveryHiddenCycles == 0 {
		t.Fatal("retransmissions should be charged to recovery")
	}
}

// TestBestEffortDropIsSilent: best-effort traffic is never retransmitted —
// a dropped push is simply gone, and the run still terminates.
func TestBestEffortDropIsSilent(t *testing.T) {
	e, run := testEngine(2)
	e.EnableFaults(fault.Config{Seed: 9, Drop: 1})
	count := 0
	e.Spawn(0, func(p *Proc) {
		e.SendFromBestEffort(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
		})
		p.Advance(100, stats.Busy)
	})
	e.Spawn(1, func(p *Proc) { p.Advance(10, stats.Busy) })
	e.Start()
	if e.Deadlocked {
		t.Fatal("lost best-effort message wedged the run")
	}
	if count != 0 {
		t.Fatal("dropped best-effort message was delivered")
	}
	if run.Procs[0].MsgsDropped != 1 {
		t.Fatalf("MsgsDropped = %d, want 1", run.Procs[0].MsgsDropped)
	}
	if run.Procs[0].Retransmits != 0 {
		t.Fatal("best-effort traffic must never retransmit")
	}
}

// TestInjectedStallDelaysDelivery: a forced node stall postpones message
// service and is accounted, but does not lose the message.
func TestInjectedStallDelaysDelivery(t *testing.T) {
	deliverAt := func(cfg *fault.Config) (Time, *stats.Run) {
		e, run := testEngine(2)
		if cfg != nil {
			e.EnableFaults(*cfg)
		}
		var at Time
		got := false
		e.Spawn(0, func(p *Proc) {
			e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
				s.Charge(10)
				at = s.Now
				got = true
				s.Wake(e.Procs[1])
			})
		})
		e.Spawn(1, func(p *Proc) {
			p.WaitUntil(func() bool { return got }, stats.Synch)
		})
		e.Start()
		return at, run
	}
	clean, _ := deliverAt(nil)
	stalled, run := deliverAt(&fault.Config{Seed: 2, Stall: 1, StallMax: 5000})
	if stalled <= clean {
		t.Fatalf("stalled delivery at %d should be later than clean %d", stalled, clean)
	}
	if run.Procs[1].FaultStallCycles == 0 {
		t.Fatal("stall cycles not accounted")
	}
}

// TestDeliveryAcrossReceiverCrash: a message sent into a receiver's crash
// window is lost on every attempt — the outage bypasses even the
// DefaultMaxAttempts no-drop floor — yet the self-sustaining
// retransmission loop outlives the outage and delivers exactly once after
// the restart. The window outlasts the backoff of every attempt below the
// floor.
func TestDeliveryAcrossReceiverCrash(t *testing.T) {
	e, run := testEngine(2)
	const windowEnd = 500 + 10_000_000
	e.EnableFaults(fault.Config{Seed: 1,
		Crashes: []fault.Crash{{Node: 1, At: 500, Down: 10_000_000}}})
	count := 0
	var deliveredAt Time
	e.Spawn(0, func(p *Proc) {
		p.Advance(1000, stats.Busy) // send from inside the window
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			deliveredAt = s.Now
			s.Wake(e.Procs[1])
		})
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count > 0 }, stats.Synch)
	})
	e.Start()
	if count != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", count)
	}
	if deliveredAt < windowEnd {
		t.Fatalf("delivered at %d, inside the crash window (ends %d)", deliveredAt, windowEnd)
	}
	// The floor says attempt DefaultMaxAttempts may not be dropped; the
	// dead node drops it anyway, so the attempt count must have sailed
	// past it.
	if run.Procs[0].Retransmits < fault.DefaultMaxAttempts {
		t.Fatalf("Retransmits = %d, want >= DefaultMaxAttempts: the outage must bypass the no-drop floor",
			run.Procs[0].Retransmits)
	}
	if run.Procs[1].NodeCrashes != 1 {
		t.Fatalf("NodeCrashes = %d, want 1", run.Procs[1].NodeCrashes)
	}
}

// TestPartitionExhaustsMaxAttempts: a partition likewise bypasses the
// no-drop floor for its whole window — attempts keep failing past
// DefaultMaxAttempts — and delivery lands exactly once after the heal,
// with the peers' state intact (a partition, unlike a crash, destroys
// nothing).
func TestPartitionExhaustsMaxAttempts(t *testing.T) {
	e, run := testEngine(2)
	const heal = 10_000_000
	e.EnableFaults(fault.Config{Seed: 1,
		Partitions: []fault.Partition{{Nodes: []int{1}, At: 0, Until: heal}}})
	count := 0
	var deliveredAt Time
	e.Spawn(0, func(p *Proc) {
		p.Advance(100, stats.Busy)
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			deliveredAt = s.Now
			s.Wake(e.Procs[1])
		})
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count > 0 }, stats.Synch)
	})
	e.Start()
	if count != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", count)
	}
	if deliveredAt < heal {
		t.Fatalf("delivered at %d, before the heal at %d", deliveredAt, heal)
	}
	if run.Procs[0].Retransmits < fault.DefaultMaxAttempts {
		t.Fatalf("Retransmits = %d, want >= DefaultMaxAttempts", run.Procs[0].Retransmits)
	}
	if run.Procs[1].NodeCrashes != 0 {
		t.Fatal("a partition must not count as a crash")
	}
}

// TestPartitionClosesBehindInFlightMessage: a message transmitted just
// before a partition opens is lost at arrival (the deliverTracked outage
// check), not at send — and still recovers via retransmission after heal.
func TestPartitionClosesBehindInFlightMessage(t *testing.T) {
	e, run := testEngine(2)
	const heal = 30000
	// The send at cycle 100 passes the transmit-side check; the partition
	// opens at 101, before any network crossing can complete.
	e.EnableFaults(fault.Config{Seed: 1,
		Partitions: []fault.Partition{{Nodes: []int{1}, At: 101, Until: heal}}})
	count := 0
	var deliveredAt Time
	e.Spawn(0, func(p *Proc) {
		p.Advance(100, stats.Busy)
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			deliveredAt = s.Now
			s.Wake(e.Procs[1])
		})
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count > 0 }, stats.Synch)
	})
	e.Start()
	if count != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", count)
	}
	if deliveredAt < heal {
		t.Fatalf("delivered at %d, before the heal at %d", deliveredAt, heal)
	}
	if run.Procs[0].MsgsDropped == 0 {
		t.Fatal("the in-flight message should have been counted as dropped at arrival")
	}
}

// TestAckLossRetransmitDedup: when the data message gets through but its
// ack is lost (possible while the attempt number is below
// DefaultMaxAttempts),
// the sender retransmits a message the receiver has already handled — the
// duplicate must be suppressed and re-acked, never re-run. The seeds are
// probed for the first schedule exhibiting exactly that shape; the fault
// injector is seed-deterministic, so the probe is too.
func TestAckLossRetransmitDedup(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		e, run := testEngine(2)
		e.EnableFaults(fault.Config{Seed: seed, Drop: 0.5})
		count := 0
		e.Spawn(0, func(p *Proc) {
			e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
				s.Charge(10)
				count++
				s.Wake(e.Procs[1])
			})
		})
		e.Spawn(1, func(p *Proc) {
			p.WaitUntil(func() bool { return count > 0 }, stats.Synch)
			// Outlive the retransmission a lost ack sets off.
			p.Advance(10_000_000, stats.Busy)
		})
		e.Start()
		if count != 1 {
			t.Fatalf("seed %d: handler ran %d times, want exactly 1", seed, count)
		}
		// The ack-loss signature: delivered once, yet retransmitted and
		// suppressed as a duplicate, with a second ack going out.
		if run.Procs[1].DupMsgsSuppressed >= 1 && run.Procs[0].Retransmits >= 1 &&
			run.Procs[1].AcksSent >= 2 {
			return
		}
	}
	t.Fatal("no seed in 1..50 exhibited the lost-ack/dedup schedule")
}

// TestDedupAcrossReceiverRestart: the transport's sequence counters and
// dedup set are journaled to stable storage (see the package comment in
// reliable.go), so a restarted receiver still suppresses duplicates of
// pre- and post-crash deliveries instead of re-running their handlers.
// With every transmission force-duplicated, each delivery — the clean one
// before the window and the retried one after the restart — arrives
// twice; a receiver that lost its dedup set at the crash would run the
// second handler four times instead of once.
func TestDedupAcrossReceiverRestart(t *testing.T) {
	e, run := testEngine(2)
	const windowEnd = 20000 + 30000
	e.EnableFaults(fault.Config{Seed: 5, Dup: 1,
		Crashes: []fault.Crash{{Node: 1, At: 20000, Down: 30000}}})
	count := 0
	var secondAt Time
	e.Spawn(0, func(p *Proc) {
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			s.Wake(e.Procs[1])
		})
		p.Advance(25000, stats.Busy) // into the receiver's down window
		e.SendFrom(p, stats.Synch, 1, 1, 64, nil, func(s *Svc, m *Msg) {
			s.Charge(10)
			count++
			secondAt = s.Now
			s.Wake(e.Procs[1])
		})
	})
	e.Spawn(1, func(p *Proc) {
		p.WaitUntil(func() bool { return count == 2 }, stats.Synch)
	})
	e.Start()
	if count != 2 {
		t.Fatalf("handlers ran %d times, want exactly 2 (one per message)", count)
	}
	if secondAt < windowEnd {
		t.Fatalf("second message delivered at %d, inside the crash window (ends %d)",
			secondAt, windowEnd)
	}
	if run.Procs[1].DupMsgsSuppressed < 2 {
		t.Fatalf("DupMsgsSuppressed = %d, want >= 2 (each delivery's forced duplicate)",
			run.Procs[1].DupMsgsSuppressed)
	}
	if run.Procs[1].NodeCrashes != 1 {
		t.Fatalf("NodeCrashes = %d, want 1", run.Procs[1].NodeCrashes)
	}
	if run.Procs[0].Retransmits == 0 {
		t.Fatal("the in-window message should have been retransmitted")
	}
}

// TestFaultedRunIsDeterministic: the same schedule gives bit-identical
// timing and statistics; a different seed is allowed to differ. The second
// schedule — the heavy preset plus a crash of the receiver — loses every
// transmission inside the window, so messages are resent from their
// retained original long after the first delivery copy was recycled.
func TestFaultedRunIsDeterministic(t *testing.T) {
	heavy, err := fault.ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	heavy.Seed = 77
	heavy.Crashes = []fault.Crash{{Node: 2, At: 2000, Down: 15000}}
	for name, cfg := range map[string]fault.Config{
		"mixed": {Seed: 77, Drop: 0.3, Dup: 0.3, Delay: 0.5,
			DelayMax: 3000, Stall: 0.2, StallMax: 2000},
		"heavy+crash": heavy,
	} {
		runOnce := func() (Time, *stats.Run) {
			e, run := testEngine(3)
			e.EnableFaults(cfg)
			count := 0
			for i := 0; i < 2; i++ {
				e.Spawn(i, func(p *Proc) {
					for k := 0; k < 10; k++ {
						e.SendFrom(p, stats.Synch, 2, 1, 128, nil, func(s *Svc, m *Msg) {
							s.Charge(50)
							count++
							s.Wake(e.Procs[2])
						})
						p.Advance(500, stats.Busy)
					}
				})
			}
			e.Spawn(2, func(p *Proc) {
				p.WaitUntil(func() bool { return count == 20 }, stats.Synch)
			})
			return e.Start(), run
		}
		a, runA := runOnce()
		b, runB := runOnce()
		if a != b {
			t.Fatalf("%s: same seed, different parallel time: %d vs %d", name, a, b)
		}
		if !reflect.DeepEqual(runA, runB) {
			t.Fatalf("%s: same seed, different statistics:\n%+v\n%+v", name, runA, runB)
		}
		if retx := runA.Procs[0].Retransmits + runA.Procs[1].Retransmits; retx == 0 {
			t.Fatalf("%s: schedule exercised no retransmission", name)
		}
	}
}

// TestSeenWindowMatchesMapOracle drives the per-pair dedup window and the
// map it replaced through the same random sequence numbers — the next in
// order, an older one still outstanding (reordering), one already seen
// (duplicate), one far ahead — across several pairs, and demands the same
// first-seen/duplicate verdict every time. Once a pair's outstanding
// numbers have all arrived the window must have slid past them.
func TestSeenWindowMatchesMapOracle(t *testing.T) {
	type seqKey struct {
		pair int
		seq  uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]pair, 5)
		oracle := map[seqKey]bool{}
		next := make([]uint64, len(pairs))      // highest number handed out
		pending := make([][]uint64, len(pairs)) // handed out, not yet delivered
		deliver := func(i int, seq uint64) {
			k := seqKey{i, seq}
			if got, want := pairs[i].firstSeen(seq), !oracle[k]; got != want {
				t.Fatalf("seed %d pair %d seq %d: firstSeen = %v, oracle says %v (base %d, %d words)",
					seed, i, seq, got, want, pairs[i].base, len(pairs[i].bits))
			}
			oracle[k] = true
		}
		takePending := func(i int) uint64 {
			j := rng.Intn(len(pending[i]))
			seq := pending[i][j]
			pending[i] = append(pending[i][:j], pending[i][j+1:]...)
			return seq
		}
		for step := 0; step < 4000; step++ {
			i := rng.Intn(len(pairs))
			switch r := rng.Intn(100); {
			case r < 50: // in order
				next[i]++
				deliver(i, next[i])
			case r < 65: // sent but held back by the network
				next[i]++
				pending[i] = append(pending[i], next[i])
			case r < 80 && len(pending[i]) > 0: // reordered arrival
				deliver(i, takePending(i))
			case r < 97 && next[i] > 0: // duplicate of anything sent so far
				deliver(i, 1+uint64(rng.Int63n(int64(next[i]))))
			case r >= 97: // far ahead: everything skipped stays outstanding
				for skip := 1 + rng.Intn(300); skip > 0; skip-- {
					next[i]++
					pending[i] = append(pending[i], next[i])
				}
				next[i]++
				deliver(i, next[i])
			}
		}
		for i := range pairs {
			for len(pending[i]) > 0 {
				deliver(i, takePending(i))
			}
			if p := &pairs[i]; len(p.bits) > 1 || p.base+64 <= next[i] {
				t.Fatalf("seed %d pair %d: all %d numbers delivered, window still base %d with %d words",
					seed, i, next[i], p.base, len(p.bits))
			}
		}
	}
}

// allIdleOnce checks that every record p ever made is idle, and that
// draining p hands each out once and zeroed: none leaked, none freed twice.
func allIdleOnce[T any](t *testing.T, what string, p *pool.Of[T], isZero func(*T) bool) {
	t.Helper()
	if p.Idle() != p.Made() {
		t.Fatalf("%s: %d of %d back in the pool", what, p.Idle(), p.Made())
	}
	seen := map[*T]bool{}
	for p.Idle() > 0 {
		x := p.Get()
		if seen[x] || !isZero(x) {
			t.Fatalf("%s %p freed twice or not reset: %+v", what, x, *x)
		}
		seen[x] = true
	}
}

// TestTrackedMessagesRecycled: after faulted runs with drops, duplicates,
// delays, stalls, a crash window and a partition have run to completion —
// every retransmission loop finished, the event queue empty — every Msg
// the engine ever allocated is idle in its pool exactly once and
// field-reset, and so is every pending entry: delivery copies
// (handled, dropped at arrival, or suppressed as duplicates), best-effort
// originals, acked reliable originals, timer and ack records.
func TestTrackedMessagesRecycled(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		e, run := testEngine(4)
		e.EnableFaults(fault.Config{Seed: seed, Drop: 0.2, Dup: 0.2, Delay: 0.3, DelayMax: 3000,
			Stall: 0.1, StallMax: 1500, Degrade: 0.05, DegradeWindow: 5000, DegradeExtra: 40,
			Crashes:    []fault.Crash{{Node: 1, At: 5000, Down: 20000}},
			Partitions: []fault.Partition{{Nodes: []int{3}, At: 30000, Until: 50000}}})
		handled := 0
		h := func(s *Svc, m *Msg) {
			s.Charge(20)
			handled++
		}
		const perProc = 40
		for i := 0; i < 4; i++ {
			e.Spawn(i, func(p *Proc) {
				for k := 0; k < perProc; k++ {
					to := (p.ID + 1 + k%3) % 4
					if k%4 == 3 {
						e.SendFromBestEffort(p, stats.Synch, to, 1, 96, "push", h)
					} else {
						e.SendFrom(p, stats.Synch, to, 1, 96, "data", h)
					}
					p.Advance(900, stats.Busy)
				}
				// Outlive every backoff the outages can stretch.
				p.Advance(60_000_000, stats.Busy)
			})
		}
		e.Start()
		if e.Deadlocked || len(e.events) != 0 {
			t.Fatalf("seed %d: run did not settle: deadlocked %v, %d events pending", seed, e.Deadlocked, len(e.events))
		}
		var sum stats.Proc
		for i := range run.Procs {
			sum.Retransmits += run.Procs[i].Retransmits
			sum.MsgsDropped += run.Procs[i].MsgsDropped
			sum.DupMsgsSuppressed += run.Procs[i].DupMsgsSuppressed
		}
		if sum.Retransmits == 0 || sum.MsgsDropped == 0 || sum.DupMsgsSuppressed == 0 || handled < 4*perProc*3/4 {
			t.Fatalf("seed %d: schedule too quiet to prove anything: %+v, %d handled", seed, sum, handled)
		}
		if e.rel.txs.Made() == 0 {
			t.Fatalf("seed %d: no pending entry was ever made", seed)
		}
		allIdleOnce(t, fmt.Sprintf("seed %d: message", seed), &e.msgs, func(m *Msg) bool { return *m == Msg{} })
		allIdleOnce(t, fmt.Sprintf("seed %d: pending entry", seed), &e.rel.txs, txIsReset)
	}
}
