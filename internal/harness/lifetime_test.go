package harness_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"aecdsm"
	"aecdsm/internal/apps"
	"aecdsm/internal/check"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
)

// The lifetime rule, from above the harness: the differential checker and
// the public facade read checksums, verdicts and statistics after a run
// has been harvested and its region has gone back to the free list. With
// every released region poisoned, none of that may change.

// TestLifetimePoisonedChecker: fuzz seeds 1..100 clean and 1..40 under
// the light preset agree across AEC, TM, Munin and ideal, auditor on,
// with every finished run's memory overwritten before its checksums are
// compared.
func TestLifetimePoisonedChecker(t *testing.T) {
	clean, faulted := uint64(100), uint64(40)
	if testing.Short() {
		clean, faulted = 12, 6
	}
	mem.Poison(t)
	for seed := uint64(1); seed <= clean; seed++ {
		if rep := check.RunWorkloadFault(check.Generate(seed, 0), check.DefaultProtocols(), nil); rep.Failed() {
			t.Fatalf("seed %d, clean:\n%s", seed, rep)
		}
	}
	for seed := uint64(1); seed <= faulted; seed++ {
		fc, err := fault.ParseSpec("light")
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 7000 + seed
		if rep := check.RunWorkloadFault(check.Generate(seed, 0), check.DefaultProtocols(), &fc); rep.Failed() {
			t.Fatalf("seed %d, light faults:\n%s", seed, rep)
		}
	}
}

// tally is a caller-supplied program in the style of examples/customapp:
// every processor adds to a lock-protected counter, processor 0 reads the
// total through its Ctx, and Err reports what it read.
type tally struct {
	space   *mem.Space // kept past the run, which a program must not do
	counter mem.Addr
	n       int
	got     int64
}

func (p *tally) Name() string  { return "tally" }
func (p *tally) NumLocks() int { return 1 }
func (p *tally) Init(s *mem.Space, nprocs int) {
	p.space, p.n = s, nprocs
	p.counter = s.Alloc("tally.counter", 8, 0)
	s.WriteInit(p.counter, []byte{100})
}
func (p *tally) Body(c *aecdsm.Ctx) {
	for i := 0; i < 3; i++ {
		c.Acquire(0)
		c.WriteI64(p.counter, c.ReadI64(p.counter)+int64(c.ID))
		c.Release(0)
	}
	c.Barrier()
	if c.ID == 0 {
		p.got = c.ReadI64(p.counter)
	}
	c.Barrier()
}
func (p *tally) Err() error {
	if want := int64(100 + 3*p.n*(p.n-1)/2); p.got != want {
		return fmt.Errorf("tally = %d, want %d", p.got, want)
	}
	return nil
}

// TestLifetimePoisonedFacade: aecdsm.Run and aecdsm.RunProgram round trips
// — run, keep the result, run again, compare — under every protocol, each
// run on the poisoned region of the one before.
func TestLifetimePoisonedFacade(t *testing.T) {
	mem.Poison(t)
	for _, protocol := range aecdsm.Protocols() {
		first, err := aecdsm.Run(aecdsm.Config{App: "IS", Protocol: protocol, Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		kept := first.Run.Clone()
		prog := &tally{}
		mine, err := aecdsm.RunProgram(aecdsm.DefaultParams(), protocol, prog)
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		again, err := aecdsm.Run(aecdsm.Config{App: "IS", Protocol: protocol, Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		if !reflect.DeepEqual(first.Run, kept) || !reflect.DeepEqual(first.Run, again.Run) {
			t.Errorf("%s: IS measured %d cycles, %d when read after two more runs, %d when rerun",
				protocol, kept.Cycles, first.Cycles(), again.Cycles())
		}
		mine2, err := aecdsm.RunProgram(aecdsm.DefaultParams(), protocol, &tally{})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		// The hook is live: the one thing here that does break the rule, a
		// program that kept its Space, reads poison where it wrote 100.
		if got := prog.space.InitImage()[prog.counter]; got != 0xA5 {
			t.Errorf("%s: the image of a harvested run reads %#x, want the poison", protocol, got)
		}
		if !reflect.DeepEqual(mine.Run, mine2.Run) || prog.Err() != nil {
			t.Errorf("%s: tally measured %d cycles then %d; its own check now says %v",
				protocol, mine.Cycles(), mine2.Cycles(), prog.Err())
		}
	}
}

// TestIdleArenaKeepsNoRun: once a run is harvested nothing of it stays
// reachable from the arena it goes back to, though the arena's engine
// keeps its processors, pools and transport rows for the next run. Under
// the light preset the first fuzz seeds end with messages unacknowledged,
// whose pending entries and originals the pools once handed out; the
// protocol instance must still be collectable after every run, under AEC,
// TreadMarks, Munin and ideal.
func TestIdleArenaKeepsNoRun(t *testing.T) {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		w := check.Generate(seed, 0)
		for _, kind := range check.DefaultProtocols() {
			for _, fcfg := range []*fault.Config{nil, &light} {
				var gone weak.Pointer[byte]
				func() {
					pr := harness.NewProtocol(kind, 2)
					// A weak pointer to the protocol's first byte: its
					// dynamic type differs per kind.
					gone = weak.Make((*byte)(reflect.ValueOf(pr).UnsafePointer()))
					harness.RunFaultTraced(w.Params(), pr, apps.NewSynth(w.Cfg), check.NewAuditor(w.Procs), fcfg)
				}()
				runtime.GC()
				runtime.GC()
				if gone.Value() != nil {
					t.Errorf("seed %d, %s, faults %v: the harvested run's protocol is still reachable", seed, kind, fcfg)
				}
			}
		}
	}
}

// TestRegionsNeverShared: four goroutines loop the differential checker at
// once. A region taken by two runs panics in Acquire, and under -race the
// two writers of its bookkeeping are reported; every report must also be
// the one its seed gives alone.
func TestRegionsNeverShared(t *testing.T) {
	const workers, seeds = 4, 6
	want := make([]string, seeds)
	for s := range want {
		want[s] = check.RunWorkloadFault(check.Generate(uint64(s+1), 0), check.DefaultProtocols(), nil).String()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < seeds; s++ {
				seed := (s+w)%seeds + 1
				rep := check.RunWorkloadFault(check.Generate(uint64(seed), 0), check.DefaultProtocols(), nil)
				if got := rep.String(); rep.Failed() || got != want[seed-1] {
					t.Errorf("worker %d, seed %d: report differs from the sequential one:\n%s", w, seed, got)
				}
			}
		}()
	}
	wg.Wait()
}
