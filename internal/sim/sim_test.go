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
// coroutines, so a run that cannot finish — deadlocked, or paused and
// abandoned — must not leave their goroutines parked. Close is what
// releases them, runs deferred calls on the way out, and is idempotent.
func TestDeadlockReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	spawnStuck := func(e *Engine) {
		for i := range e.Procs {
			e.Spawn(i, func(p *Proc) {
				defer func() { unwound++ }()
				p.Advance(uint64(10+p.ID), stats.Busy)
				p.WaitUntil(func() bool { return false }, stats.Synch)
			})
		}
	}
	for i := 0; i < 50; i++ {
		e, _ := testEngine(4)
		spawnStuck(e)
		e.Start()
		if !e.Deadlocked {
			t.Fatal("deadlock not detected")
		}
		e.Close() // the deadlock path already closed: a no-op
	}
	if unwound != 50*4 {
		t.Errorf("%d bodies unwound by the deadlock path, want %d", unwound, 50*4)
	}

	// Paused mid-run and abandoned: two bodies blocked, two parked at
	// their horizon.
	e, _ := testEngine(4)
	spawnStuck(e)
	if !e.StartUntil(12) {
		t.Fatal("run should be paused with events pending")
	}
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("paused run holds %d goroutines, started with %d: the coroutines are not live", n, before)
	}
	e.Close()
	e.Close()
	if unwound != 51*4 {
		t.Errorf("%d bodies unwound after closing the paused run, want %d", unwound, 51*4)
	}

	// Launched but paused before the first step: coroutines that were
	// never entered have no stack to unwind, only a goroutine to release.
	e, _ = testEngine(2)
	spawnStuck(e)
	e.StartUntil(0)
	e.Close()

	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after closing every run, started with %d", after, before)
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
	e.Close()

	e, _ = testEngine(2)
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) { p.Advance(100, stats.Busy) })
	}
	e.StartUntil(50)
	mustPanic(t, "engine started twice", func() { e.StartUntil(80) })
	e.Close()
}

// TestClosedEngineStaysStopped: continuing a run after Close resumes no
// body — the step events still queued find their processors done.
func TestClosedEngineStaysStopped(t *testing.T) {
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
	e.StartUntil(50)
	e.Close()
	before := steps
	e.Finish()
	if steps != before {
		t.Errorf("bodies ran %d more steps after Close", steps-before)
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

// handoffOp returns one simulated cycle of two processors in lockstep, on
// a launched engine that t closes at cleanup: each processor's Advance(1)
// reaches the horizon, yields to the engine and is resumed by a step event,
// so the op is two hand-offs (schedule, pop, switch in, switch out) and
// the warm-start pause between dispatches.
func handoffOp(t testing.TB) func() {
	e, _ := testEngine(2)
	for i := range e.Procs {
		e.Spawn(i, func(p *Proc) {
			for {
				p.Advance(1, stats.Busy)
			}
		})
	}
	t.Cleanup(e.Close)
	horizon := Time(1)
	e.StartUntil(horizon)
	return func() {
		horizon++
		e.ContinueUntil(horizon)
	}
}

// TestHandoffDoesNotAllocate: switching into a processor's coroutine and
// back allocates nothing.
func TestHandoffDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, handoffOp(t)); n != 0 {
		t.Fatalf("one lockstep cycle of two processors allocates %v objects/op, want 0", n)
	}
}

// BenchmarkHandoff times handoffOp: one op is two hand-offs.
func BenchmarkHandoff(b *testing.B) {
	op := handoffOp(b)
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}
