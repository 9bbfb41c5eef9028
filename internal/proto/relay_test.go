package proto

import (
	"testing"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
)

// syncProto is the ideal memory with the relay's counting barrier.
type syncProto struct {
	Ideal
	Relay
}

func (p *syncProto) Attach(e *sim.Engine, s *mem.Space, ctxs []*Ctx) {
	p.Ideal.Attach(e, s, ctxs)
	p.InitRelay(e, ctxs)
}

func (p *syncProto) Barrier(c *Ctx) { p.Sync(c) }

// TestRelaySync runs two consecutive counting barriers on 64 processors,
// flat and on the radix-16 tree. The last processor reaches each barrier
// long after the others have, so a release that fires before its count
// lands lets the others out before it has even entered. Each processor
// must leave each barrier once, after every processor entered it, and no
// node may still be counting once the last episode is over.
func TestRelaySync(t *testing.T) {
	const nprocs, episodes, late = 64, 2, 1_000_000
	for _, radix := range []int{0, 16} {
		params := memsys.Default().ForProcs(nprocs)
		params.BarrierRadix = radix
		pr := &syncProto{Ideal: *NewIdeal(0)}
		var entered, left [episodes][nprocs]sim.Time
		var returns [nprocs]int
		m := Assemble(params, pr, Script{Homes: []int{0}, Do: func(c *Ctx) {
			for ep := range episodes {
				work := uint64(c.ID)
				if c.ID == nprocs-1 {
					work = late
				}
				c.Compute(work)
				entered[ep][c.ID] = c.P.Clock
				c.Barrier()
				left[ep][c.ID] = c.P.Clock
				returns[c.ID]++
			}
		}}, nil, nil, nil)
		if m.Run() {
			t.Errorf("radix %d: deadlocked", radix)
		}
		for p, n := range returns {
			if n != episodes {
				t.Errorf("radix %d: processor %d left %d barriers, want %d", radix, p, n, episodes)
			}
		}
		for ep := range episodes {
			last := entered[ep][nprocs-1]
			for p := range nprocs {
				if left[ep][p] <= last {
					t.Errorf("radix %d: processor %d left barrier %d at cycle %d, before processor %d entered it at cycle %d",
						radix, p, ep, left[ep][p], nprocs-1, last)
				}
			}
		}
		for node, n := range pr.heard {
			if n != 0 {
				t.Errorf("radix %d: node %d still counts %d processors after the last barrier", radix, node, n)
			}
		}
	}
}
