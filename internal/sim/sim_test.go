package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aecdsm/internal/memsys"
	"aecdsm/internal/stats"
)

func testEngine(n int) (*Engine, *stats.Run) {
	p := memsys.Default()
	if n != p.NumProcs {
		p.NumProcs = n
		// keep a valid mesh
		p.MeshW, p.MeshH = n, 1
	}
	run := stats.NewRun("test", "test", p.NumProcs)
	return New(p, run), run
}

func TestAdvanceAccounting(t *testing.T) {
	e, run := testEngine(2)
	e.Spawn(0, func(p *Proc) {
		p.Advance(100, stats.Busy)
		p.Advance(50, stats.Data)
	})
	e.Spawn(1, func(p *Proc) { p.Advance(10, stats.Busy) })
	cycles := e.Start()
	if cycles != 150 {
		t.Fatalf("parallel time = %d, want 150", cycles)
	}
	if run.Procs[0].Breakdown[stats.Busy] != 100 || run.Procs[0].Breakdown[stats.Data] != 50 {
		t.Fatalf("breakdown wrong: %+v", run.Procs[0].Breakdown)
	}
}

func TestBlockWake(t *testing.T) {
	e, run := testEngine(2)
	var flag bool
	e.Spawn(0, func(p *Proc) {
		p.WaitUntil(func() bool { return flag }, stats.Synch)
		if p.Clock < 500 {
			t.Errorf("woke too early at %d", p.Clock)
		}
	})
	e.Spawn(1, func(p *Proc) {
		p.Advance(500, stats.Busy)
		flag = true
		e.Procs[0].Wake(p.Clock)
	})
	e.Start()
	if run.Procs[0].Breakdown[stats.Synch] != 500 {
		t.Fatalf("stall accounting = %d, want 500", run.Procs[0].Breakdown[stats.Synch])
	}
}

func TestSpuriousWakeRechecks(t *testing.T) {
	e, _ := testEngine(3)
	var ready bool
	e.Spawn(0, func(p *Proc) {
		p.WaitUntil(func() bool { return ready }, stats.Synch)
		if p.Clock < 1000 {
			t.Errorf("condition satisfied too early at %d", p.Clock)
		}
	})
	e.Spawn(1, func(p *Proc) {
		p.Advance(100, stats.Busy)
		e.Procs[0].Wake(p.Clock) // spurious: condition still false
	})
	e.Spawn(2, func(p *Proc) {
		p.Advance(1000, stats.Busy)
		ready = true
		e.Procs[0].Wake(p.Clock)
	})
	if e.Start() == 0 {
		t.Fatal("no progress")
	}
	if e.Deadlocked {
		t.Fatal("deadlocked")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e, _ := testEngine(1)
	e.Spawn(0, func(p *Proc) {
		p.WaitUntil(func() bool { return false }, stats.Synch)
	})
	e.Start()
	if !e.Deadlocked {
		t.Fatal("deadlock not detected")
	}
}

func TestMessageDelivery(t *testing.T) {
	e, _ := testEngine(4)
	var deliveredAt Time
	var payload any
	e.Spawn(0, func(p *Proc) {
		e.SendFrom(p, stats.Busy, 3, 1, 64, "hello", func(s *Svc, m *Msg) {
			deliveredAt = m.ArriveAt
			payload = m.Payload
			s.Wake(e.Procs[3])
		})
	})
	for i := 1; i < 4; i++ {
		i := i
		e.Spawn(i, func(p *Proc) {
			if i == 3 {
				p.WaitUntil(func() bool { return payload != nil }, stats.Synch)
			}
		})
	}
	e.Start()
	if payload != "hello" {
		t.Fatalf("payload = %v", payload)
	}
	if deliveredAt == 0 {
		t.Fatal("no network latency charged")
	}
}

func TestSendChargesSender(t *testing.T) {
	e, run := testEngine(2)
	e.Spawn(0, func(p *Proc) {
		before := p.Clock
		e.SendFrom(p, stats.Synch, 1, 0, 128, nil, func(s *Svc, m *Msg) {})
		if p.Clock == before {
			t.Error("send should cost the sender cycles")
		}
	})
	e.Spawn(1, func(p *Proc) { p.Advance(1, stats.Busy) })
	e.Start()
	if run.Procs[0].MsgsSent != 1 {
		t.Fatalf("MsgsSent = %d", run.Procs[0].MsgsSent)
	}
}

func TestServiceHiddenWhileBlocked(t *testing.T) {
	e, run := testEngine(2)
	var replied bool
	e.Spawn(0, func(p *Proc) {
		e.SendFrom(p, stats.Busy, 1, 0, 32, nil, func(s *Svc, m *Msg) {
			s.Charge(5000)
			s.Send(m.From, 1, 32, nil, func(s2 *Svc, m2 *Msg) {
				replied = true
				s2.Wake(s2.P)
			})
		})
		p.WaitUntil(func() bool { return replied }, stats.Data)
		e.Procs[1].Wake(p.Clock)
	})
	e.Spawn(1, func(p *Proc) {
		// Blocked for the whole run: the 5000-cycle service must be
		// hidden, not stolen.
		p.WaitUntil(func() bool { return replied }, stats.Synch)
	})
	e.Start()
	if e.Deadlocked {
		t.Fatal("deadlocked")
	}
	if run.Procs[1].IPCHiddenCycles < 5000 {
		t.Fatalf("hidden IPC = %d, want >= 5000", run.Procs[1].IPCHiddenCycles)
	}
	if run.Procs[1].Breakdown[stats.IPC] != 0 {
		t.Fatalf("blocked proc should not be charged visible IPC, got %d",
			run.Procs[1].Breakdown[stats.IPC])
	}
}

func TestServiceStolenWhileRunning(t *testing.T) {
	e, run := testEngine(2)
	e.Spawn(0, func(p *Proc) {
		e.SendFrom(p, stats.Busy, 1, 0, 32, nil, func(s *Svc, m *Msg) {
			s.Charge(7000)
		})
		p.Advance(1, stats.Busy)
	})
	e.Spawn(1, func(p *Proc) {
		// Keep computing past the message arrival so the service is
		// stolen from computation.
		for i := 0; i < 100; i++ {
			p.Advance(1000, stats.Busy)
		}
	})
	e.Start()
	if run.Procs[1].Breakdown[stats.IPC] < 7000 {
		t.Fatalf("stolen IPC = %d, want >= 7000", run.Procs[1].Breakdown[stats.IPC])
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	trace := func() []Time {
		e, _ := testEngine(4)
		var order []Time
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(i, func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Advance(uint64(100+i*37+k*13), stats.Busy)
					order = append(order, p.Clock)
				}
			})
		}
		e.Start()
		return order
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventOrdering(t *testing.T) {
	e, _ := testEngine(1)
	var got []int
	e.schedule(100, func() { got = append(got, 2) })
	e.schedule(50, func() { got = append(got, 1) })
	e.schedule(100, func() { got = append(got, 3) }) // FIFO at same time
	e.Spawn(0, func(p *Proc) {
		p.Advance(200, stats.Busy)
	})
	e.Start()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v", got)
	}
}

func TestLocalMessageSkipsNetwork(t *testing.T) {
	e, _ := testEngine(2)
	var arrive Time
	e.Spawn(0, func(p *Proc) {
		p.Advance(100, stats.Busy)
		e.SendFrom(p, stats.Busy, 0, 0, 1<<20, nil, func(s *Svc, m *Msg) {
			arrive = m.ArriveAt
		})
		p.Advance(10000, stats.Busy)
	})
	e.Spawn(1, func(p *Proc) { p.Advance(1, stats.Busy) })
	e.Start()
	// Local delivery: only the messaging overhead, no wormhole cost for
	// a megabyte payload.
	if arrive > 100+e.Params.MsgOverheadCycles {
		t.Fatalf("local message took %d cycles", arrive)
	}
}

func TestSvcHelpersAndCheckpoint(t *testing.T) {
	e, run := testEngine(2)
	var served bool
	e.Spawn(0, func(p *Proc) {
		e.SendFrom(p, stats.Busy, 1, 0, 64, nil, func(s *Svc, m *Msg) {
			s.ChargeList(10) // 60 cycles of list processing
			s.ChargeMem(256) // memory bus occupancy
			served = true
			s.Wake(e.Procs[0])
		})
		p.WaitUntil(func() bool { return served }, stats.Data)
		if e.Now() == 0 {
			t.Error("engine time did not advance")
		}
		if p.String() == "" {
			t.Error("empty proc String")
		}
	})
	e.Spawn(1, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(100, stats.Busy)
			p.Checkpoint()
		}
	})
	e.Start()
	if !served {
		t.Fatal("handler never ran")
	}
	if run.Procs[1].Breakdown[stats.Busy] != 5000 {
		t.Fatalf("busy = %d", run.Procs[1].Breakdown[stats.Busy])
	}
}

// TestDeadlockReleasesCoroutines: the engine owns its processors'
// coroutines, so a run that cannot finish must not leave their goroutines
// parked. The deadlock path releases them and runs deferred calls on the
// way out.
func TestDeadlockReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 50; i++ {
		e, _ := testEngine(4)
		for i := range e.Procs {
			e.Spawn(i, func(p *Proc) {
				defer func() { unwound++ }()
				p.Advance(uint64(10+p.ID), stats.Busy)
				p.WaitUntil(func() bool { return false }, stats.Synch)
			})
		}
		e.Start()
		if !e.Deadlocked {
			t.Fatal("deadlock not detected")
		}
	}
	if unwound != 50*4 {
		t.Errorf("%d bodies unwound by the deadlock path, want %d", unwound, 50*4)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after every deadlocked run, started with %d", after, before)
	}
}

// mustPanic fails t unless f panics with a value containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("recovered %v, want a panic containing %q", r, want)
		}
	}()
	f()
}

// TestEngineMisuse: invalid machine parameters, a processor without a
// body and a second start are refused with a panic naming the mistake.
func TestEngineMisuse(t *testing.T) {
	p := memsys.Default()
	p.CacheLineBytes = 48
	mustPanic(t, "sim: invalid params", func() { New(p, stats.NewRun("test", "test", p.NumProcs)) })

	e, _ := testEngine(2)
	e.Spawn(0, func(p *Proc) {})
	mustPanic(t, "processor 1 has no body", func() { e.Start() })

	e, _ = testEngine(2)
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) { p.Advance(100, stats.Busy) })
	}
	e.Start()
	mustPanic(t, "engine started twice", func() { e.Start() })
}

// TestObserverSeesMarks: the observer runs once per mark, in order, after
// every event before the mark and before any event at or after it — with
// two marks at one time, a mark at cycle 0 and a mark between two events —
// and marks past the end of the run are observed when it stops.
func TestObserverSeesMarks(t *testing.T) {
	e, _ := testEngine(2)
	var dispatched []Time // the times of the events At scheduled, as they ran
	for _, at := range []Time{5, 25, 25, 60, 90} {
		e.At(at, func() { dispatched = append(dispatched, e.Now()) })
	}
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for p.Clock < 100 {
				p.Advance(10, stats.Busy)
			}
		})
	}
	marks := []Time{0, 25, 25, 26, 90, 1000, 2000}
	var seen []int // how many At events had run at each observation
	e.Observe(marks, func(i int) {
		if i != len(seen) {
			t.Errorf("observed mark %d after %d marks", i, len(seen))
		}
		seen = append(seen, len(dispatched))
	})
	e.Start()
	if len(seen) != len(marks) || len(dispatched) != 5 {
		t.Fatalf("%d of %d marks observed, %d of 5 events run", len(seen), len(marks), len(dispatched))
	}
	for i, n := range seen {
		for _, at := range dispatched[:n] {
			if at >= marks[i] {
				t.Errorf("an event at %d ran before mark %d (%d)", at, i, marks[i])
			}
		}
		for _, at := range dispatched[n:] {
			if at < marks[i] {
				t.Errorf("an event at %d ran after mark %d (%d)", at, i, marks[i])
			}
		}
	}
}

// TestBodyPanicSurfaces: a panic inside a processor body reaches the
// caller of Start on its own goroutine — recoverable — and still says
// which processor, at what clock, with the body's own stack; the other
// bodies are released on the way out.
func TestBodyPanicSurfaces(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := testEngine(3)
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for {
				p.Advance(100, stats.Busy)
				if p.ID == 1 && p.Clock == 300 {
					panic("directory entry lost")
				}
			}
		})
	}
	var got string
	func() {
		defer func() { got = fmt.Sprint(recover()) }()
		e.Start()
	}()
	for _, want := range []string{"processor 1", "cycle 300", "directory entry lost", "sim_test.go"} {
		if !strings.Contains(got, want) {
			t.Errorf("panic value lacks %q:\n%s", want, got)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the panic, started with %d", after, before)
	}
}

// startPanic starts e and returns the panic Start raised, as a string.
func startPanic(t *testing.T, e *Engine) (got string) {
	t.Helper()
	defer func() { got = fmt.Sprint(recover()) }()
	e.Start()
	t.Fatal("Start returned without the panic")
	return ""
}

// checkRenewed: the engine a panic passed through renews into one that
// runs a body to its end.
func checkRenewed(t *testing.T, e *Engine) {
	t.Helper()
	run := stats.NewRun("test", "test", 1)
	p := e.Params
	p.NumProcs, p.MeshW, p.MeshH = 1, 1, 1
	e.Renew(p, run)
	e.Spawn(0, func(p *Proc) { p.Advance(100, stats.Busy) })
	if got := e.Start(); got != 100 || e.Deadlocked {
		t.Errorf("the renewed engine ran to cycle %d (deadlocked %v), want 100", got, e.Deadlocked)
	}
}

// TestEventPanicNamesTheEvent: a panic in an event — here an At function
// — is the event's wherever it is dispatched: on the stack of processor 0,
// which parked ahead of it; on that of processor 1, which processor 0
// resumed; or on the engine goroutine, which dispatches it after the
// observer's mark. Each time Start re-panics once, naming the event's cycle
// and keeping its stack, and blames no processor; every coroutine is
// released and the engine renews into a working one.
func TestEventPanicNamesTheEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		procs  int
		marks  []Time
		onProc bool
	}{
		{"on processor 0's stack", 1, nil, true},
		{"on processor 1's stack, resumed by processor 0", 2, nil, true},
		{"on the engine goroutine", 1, []Time{40}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e, _ := testEngine(tc.procs)
			e.Observe(tc.marks, func(int) {})
			e.At(40, func() { panic("directory entry lost") })
			for i := range e.Procs {
				e.Spawn(i, func(p *Proc) {
					for {
						p.Advance(100, stats.Busy)
					}
				})
			}
			got := startPanic(t, e)
			for _, want := range []string{"sim: event at cycle 40 panicked: directory entry lost", "sim_test.go"} {
				if !strings.Contains(got, want) {
					t.Errorf("panic value lacks %q:\n%s", want, got)
				}
			}
			if n := strings.Count(got, "panicked"); n != 1 || strings.Contains(got, "processor") {
				t.Errorf("panic value names %d sources, or a processor:\n%s", n, got)
			}
			if parked := strings.Contains(got, "(*Proc).park"); parked != tc.onProc {
				t.Errorf("dispatched from a parked processor: %v, want %v:\n%s", parked, tc.onProc, got)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after the panic, started with %d", after, before)
			}
			checkRenewed(t, e)
		})
	}
}

// TestNestedPanicNamedOnce: processors resume one another, so a body's
// panic can unwind through every processor on the chain of resumes above
// it — here processor 2, resumed by 1, resumed by 0, resumed by the
// engine. Start re-panics it once, naming processor 2 and its clock; every
// coroutine is released and the engine renews into a working one.
func TestNestedPanicNamedOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := testEngine(3)
	nested := false
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for {
				p.Advance(10, stats.Busy)
				if p.ID == 2 {
					nested = e.Procs[1].onChain && e.Procs[0].onChain
					panic("lost write")
				}
			}
		})
	}
	got := startPanic(t, e)
	if !nested {
		t.Fatal("processor 2 did not panic beneath processors 1 and 0")
	}
	if want := "sim: processor 2 panicked at cycle 10: lost write"; !strings.Contains(got, want) {
		t.Errorf("panic value lacks %q:\n%s", want, got)
	}
	if n := strings.Count(got, "panicked"); n != 1 {
		t.Errorf("the panic is named %d times:\n%s", n, got)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the panic, started with %d", after, before)
	}
	checkRenewed(t, e)
}

// TestClosedEngineStaysStopped: a run cut short by a panic on the engine's
// own goroutine — here the observer's, with every body still runnable —
// closes the engine on the way out. No body takes another step, not even
// when the caller recovers and starts the engine again, and no coroutine
// is left parked.
func TestClosedEngineStaysStopped(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := testEngine(2)
	steps := 0
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for {
				steps++
				p.Advance(10, stats.Busy)
			}
		})
	}
	e.Observe([]Time{50}, func(int) { panic("observer gave up") })
	mustPanic(t, "observer gave up", func() { e.Start() })
	stopped := steps
	if stopped == 0 {
		t.Fatal("no body ran before the mark")
	}
	mustPanic(t, "engine started twice", func() { e.Start() })
	if steps != stopped {
		t.Errorf("bodies ran %d more steps after the engine closed", steps-stopped)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the engine closed, started with %d", after, before)
	}
}

// lockstep runs two processors through the given number of simulated
// cycles in lockstep: each processor's Advance(1) reaches the horizon and
// requeues its resume behind the other's, so a cycle is two hand-offs —
// processor 0 switches into processor 1, which yields back to it.
func lockstep(cycles int) {
	e, _ := testEngine(2)
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for range cycles {
				p.Advance(1, stats.Busy)
			}
		})
	}
	e.Start()
}

// TestHandoffDoesNotAllocate: switching into a processor's coroutine and
// back allocates nothing, so a run's allocations do not grow with its
// hand-off count.
func TestHandoffDoesNotAllocate(t *testing.T) {
	short := testing.AllocsPerRun(20, func() { lockstep(10) })
	long := testing.AllocsPerRun(20, func() { lockstep(1010) })
	if long != short {
		t.Fatalf("a run of 1010 lockstep cycles allocates %v objects, one of 10 cycles %v: want the same", long, short)
	}
}

// BenchmarkHandoff times lockstep: one op is one cycle, two hand-offs.
func BenchmarkHandoff(b *testing.B) {
	b.ReportAllocs()
	lockstep(b.N)
}
