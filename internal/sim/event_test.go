package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// pendingSet is the pop-order oracle for the event queue: the pending
// events in arrival order, searched linearly for the least (at, seq).
// It shares no logic with a heap — no tree shape, no sifting.
type pendingSet []event

func (s pendingSet) min() int {
	best := 0
	for i, ev := range s {
		if ev.at < s[best].at || ev.at == s[best].at && ev.seq < s[best].seq {
			best = i
		}
	}
	return best
}

func (s *pendingSet) pop() event {
	i := s.min()
	ev := (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	return ev
}

// second is the time of the earliest event after the least one.
func (s pendingSet) second() Time {
	if len(s) < 2 {
		return Forever
	}
	rest := append(pendingSet(nil), s...)
	rest.pop()
	return rest[rest.min()].at
}

// TestQueuePopOrder drives the event queue and the linear-scan oracle
// with identical randomized push/pop/requeue/second streams and demands
// bit-identical behavior. The push deltas mix same-cycle bursts (the
// seq tie-break), near, far-future and Forever-adjacent timestamps
// (where arithmetic on the key would overflow uint64). Pushes and
// requeues respect the engine invariant that no event is scheduled before
// the last dispatched timestamp; a requeue gives the root a fresh key, as
// a parking processor does its resume, and second — a horizon — is read
// mid-stream, because the engine reads it while dispatching.
func TestQueuePopOrder(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q eventQueue
		var ref pendingSet
		var seq uint64
		var last Time
		for op := 0; op < 5000; op++ {
			r := rng.Intn(10)
			var at Time
			switch rng.Intn(7) {
			case 0: // same-cycle burst fodder
				at = last
			case 1:
				at = last + Time(rng.Intn(1<<8))
			case 2:
				at = last + Time(rng.Intn(1<<16))
			case 3:
				at = last + Time(rng.Intn(1<<24))
			case 4: // far future
				at = last + 1<<24 + Time(rng.Intn(1<<30))
			case 5: // Forever-adjacent
				at = Forever - Time(rng.Intn(4))
			case 6:
				at = Forever
			}
			if at < last {
				at = last
			}
			switch {
			case r < 5 || len(ref) == 0:
				seq++
				ev := event{at: at, seq: seq}
				q.push(ev)
				ref = append(ref, ev)
			case r < 7:
				qe, re := q.pop(), ref.pop()
				if qe.at != re.at || qe.seq != re.seq {
					t.Fatalf("trial %d op %d: pop (at %d, seq %d), oracle (at %d, seq %d)",
						trial, op, qe.at, qe.seq, re.at, re.seq)
				}
				last = qe.at
			case r < 8:
				last = q[0].at
				if at < last {
					at = last
				}
				seq++
				q.requeue(at, seq)
				ref.pop()
				ref = append(ref, event{at: at, seq: seq})
			default:
				if got, want := q.second(), ref.second(); got != want {
					t.Fatalf("trial %d op %d: second %d, oracle %d", trial, op, got, want)
				}
			}
			if len(q) != len(ref) || len(q) > 0 && (q[0].at != ref[ref.min()].at || q[0].seq != ref[ref.min()].seq) {
				t.Fatalf("trial %d op %d: %d events, root %+v; oracle %d", trial, op, len(q), q[:min(len(q), 1)], len(ref))
			}
		}
		for len(ref) > 0 {
			qe, re := q.pop(), ref.pop()
			if qe.at != re.at || qe.seq != re.seq {
				t.Fatalf("trial %d drain: pop (at %d, seq %d), oracle (at %d, seq %d)",
					trial, qe.at, qe.seq, re.at, re.seq)
			}
		}
		if len(q) != 0 || q.second() != Forever {
			t.Fatalf("trial %d: drained queue holds %d, second %d", trial, len(q), q.second())
		}
	}
}

// TestQueueRootStaysWhileRunning: the root is a running processor's
// resume, and stays the root while its body pushes events at or after it
// — nearer than the horizon it was granted, too; second sees them. The
// body's requeue then sifts the resume below the nearer ones.
func TestQueueRootStaysWhileRunning(t *testing.T) {
	var q eventQueue
	q.push(event{at: 0, seq: 1})
	q.push(event{at: 1 << 20, seq: 2})
	if got := q.second(); got != 1<<20 {
		t.Fatalf("second = %d", got)
	}
	q.push(event{at: 5, seq: 3})
	q.push(event{at: 3, seq: 4})
	if q[0].seq != 1 {
		t.Fatalf("the root moved to seq %d", q[0].seq)
	}
	if got := q.second(); got != 3 {
		t.Fatalf("second after near pushes = %d", got)
	}
	q.requeue(4, 5)
	for i, want := range []Time{3, 4, 5, 1 << 20} {
		if ev := q.pop(); ev.at != want {
			t.Fatalf("pop %d: at %d, want %d", i, ev.at, want)
		}
	}
}

// TestPastEventStops: an event scheduled before now is a diagnosed stop
// naming both cycles, not a silently rewritten timestamp; Engine.At, the
// documented exception, clamps to now.
func TestPastEventStops(t *testing.T) {
	e, _ := testEngine(1)
	e.now = 100
	e.At(40, func() {})
	if got := e.events[0].at; got != 100 {
		t.Fatalf("At(40) at cycle 100 queued for cycle %d, want 100", got)
	}
	defer func() {
		const want = "event scheduled for cycle 99, before now (cycle 100)"
		if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("schedule(99) at cycle 100: recovered %v, want a panic containing %q", r, want)
		}
	}()
	e.schedule(99, func() {})
}

// scheduleOp returns one steady-state pop/push/second cycle of the event
// queue — the hot loop under every simulated cycle — with the given number
// of events pending.
func scheduleOp(pending int) func() {
	var q eventQueue
	var seq uint64
	for i := 0; i < pending; i++ {
		seq++
		q.push(event{at: Time(i * 37 % 250), seq: seq})
	}
	return func() {
		ev := q.pop()
		seq++
		q.push(event{at: ev.at + Time(seq%97) + 1, seq: seq})
		_ = q.second()
	}
}

// TestScheduleDoesNotAllocate: the queue's cycle allocates nothing with 64
// events pending (one resume per processor of a 64-node machine) or 4096
// (a 1024-node machine with its messages and timers in flight).
func TestScheduleDoesNotAllocate(t *testing.T) {
	for _, pending := range []int{64, 4096} {
		if n := testing.AllocsPerRun(1000, scheduleOp(pending)); n != 0 {
			t.Errorf("pop/push/second with %d pending allocates %v objects/op, want 0", pending, n)
		}
	}
}

func benchSchedule(b *testing.B, pending int) {
	op := scheduleOp(pending)
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// BenchmarkSchedule holds 64 events pending.
func BenchmarkSchedule(b *testing.B) { benchSchedule(b, 64) }

// BenchmarkScheduleDeep holds 4096 pending, so the heap's log-n cost shows.
func BenchmarkScheduleDeep(b *testing.B) { benchSchedule(b, 4096) }
