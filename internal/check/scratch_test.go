package check

import (
	"fmt"
	"reflect"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
)

// The reuse rule of barrier scratch, from above the protocols: AEC's
// instructions, targets, homes and arrival lists and TreadMarks' arrival
// and interior combining lists are rebuilt in place at every barrier,
// because nothing reads the previous episode's by then (DESIGN.md, "A
// barrier episode's scratch"). TreadMarks' Lazy Hybrid piggyback list is
// rebuilt in place at every grant to the same acquirer, which has consumed
// the last one (DESIGN.md, "TreadMarks' write notices"). With every reused
// list overwritten with garbage the moment its owner reuses it, a reader
// that came too late reads garbage — and then no checksum or statistic may
// change.

// TestScriptsBarrierScratchPoisoned: the script table under every protocol
// kind, clean and under light faults, measures the same with the scratch
// poisoned as without.
func TestScriptsBarrierScratchPoisoned(t *testing.T) {
	plain := runScripts(t)
	proto.PoisonScratch(t)
	poisoned := runScripts(t)
	for name, run := range plain {
		if !reflect.DeepEqual(poisoned[name], run) {
			t.Errorf("%s: %d cycles with the barrier scratch poisoned, %d without", name, poisoned[name].Cycles, run.Cycles)
		}
	}
}

// TestTreeBarrierScratchPoisoned: a 64-processor machine on a radix-16
// combining tree, with sharded homes and managers, under light faults and
// under one crash, with one leaf slow, runs AEC and TreadMarks to the
// same reads and the same statistics with the barrier scratch poisoned as
// without. The processors under the interior nodes write their word of one
// page outside any critical section and bump one of four lock-protected
// counters, cross a barrier and read their neighbour's word; the manager's
// own leaves do nothing but cross barriers, so the first arrivals of a
// barrier reach the manager while its release is still on the way down
// the tree. The slow leaf — the last processor, under the last interior
// node — is cut off from the rest of the machine for 20 000 cycles in
// every 100 000, so that releases reach it later still.
func TestTreeBarrierScratchPoisoned(t *testing.T) {
	const procs, steps, first = 64, 4, 16 // the workers are first..procs-1
	const leaf = procs - 1
	params := memsys.Default().ForProcs(procs)
	params.BarrierRadix, params.ShardHomes, params.ShardManagers = 16, true, true
	slow := func(spec string) *fault.Config {
		fc := mustSpec(t, spec, 3)
		for at := uint64(50_000); at < 20_000_000; at += 100_000 {
			fc.Partitions = append(fc.Partitions, fault.Partition{Nodes: []int{leaf}, At: at, Until: at + 20_000})
		}
		return fc
	}
	schedules := []*fault.Config{slow("light"), slow("crash=17@400000:200000")}
	kinds := []harness.ProtocolKind{harness.ProtoAEC, harness.ProtoAECNoLAP, harness.ProtoTM, harness.ProtoTMLH}
	if testing.Short() {
		kinds = []harness.ProtocolKind{harness.ProtoAEC, harness.ProtoTM, harness.ProtoTMLH}
	}
	type outcome struct {
		sum uint64 // of every value read, weighted by reader and step
		run *stats.Run
	}
	runAll := func(t *testing.T) map[string]outcome {
		out := map[string]outcome{}
		for _, kind := range kinds {
			for _, fc := range schedules {
				what := fmt.Sprintf("%s, faults %v", kind, fc)
				var sum uint64
				s := proto.Script{Homes: []int{0, 1, 2}, Locks: 4, Do: func(c *proto.Ctx) {
					counters := c.S.PageBase(2)
					for k := range steps {
						x := c.S.PageBase(k % 2)
						if c.ID >= first {
							c.WriteI64(x+mem.Addr(8*c.ID), int64(k*procs+c.ID))
							lock := c.ID % 4
							c.Acquire(lock)
							a := counters + mem.Addr(8*lock)
							c.WriteI64(a, c.ReadI64(a)+1)
							c.Release(lock)
						}
						c.Barrier()
						if c.ID >= first {
							next := first + (c.ID+1-first)%(procs-first)
							got := c.ReadI64(x + mem.Addr(8*next))
							if want := int64(k*procs + next); got != want {
								t.Errorf("%s: processor %d reads %d of processor %d at step %d, want %d", what, c.ID, got, next, k, want)
							}
							sum += uint64(got) * uint64(c.ID+1) * uint64(k+1)
						}
					}
					c.Barrier()
					if c.ID == 0 {
						for lock := range 4 {
							got := c.ReadI64(counters + mem.Addr(8*lock))
							if want := int64(steps * (procs - first) / 4); got != want {
								t.Errorf("%s: counter %d reads %d, want %d", what, lock, got, want)
							}
							sum += uint64(got)
						}
					}
				}}
				aud := NewAuditor(procs)
				res := harness.RunFaultTraced(params, harness.NewProtocol(kind, 2), s, aud, fc)
				if res.Deadlocked {
					t.Fatalf("%s: deadlocked", what)
				}
				if crashes := res.Run.Sum(func(p *stats.Proc) uint64 { return p.NodeCrashes }); crashes != uint64(len(fc.Crashes)) {
					t.Errorf("%s: %d crashes, want %d", what, crashes, len(fc.Crashes))
				}
				for _, v := range aud.Violations() {
					t.Errorf("%s: %s", what, v)
				}
				out[what] = outcome{sum, res.Run}
			}
		}
		return out
	}
	plain := runAll(t)
	proto.PoisonScratch(t)
	poisoned := runAll(t)
	for what, o := range plain {
		p := poisoned[what]
		switch {
		case p.sum != o.sum:
			t.Errorf("%s: the reads sum to %d with the barrier scratch poisoned, %d without", what, p.sum, o.sum)
		case !reflect.DeepEqual(p.run, o.run):
			t.Errorf("%s: %d cycles with the barrier scratch poisoned, %d without", what, p.run.Cycles, o.run.Cycles)
		}
	}
}
