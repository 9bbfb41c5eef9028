package proto

import (
	"fmt"
	"strings"
	"testing"

	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// TestAwaitOverlapsUntilLanded: processor 1 lands an answer at processor 0
// while processor 0 awaits it. With overlap work always at hand, the
// overlap runs until the answer has landed and never after, and nothing
// is stalled; without, the wait is stalled and charged to the await's
// category. The answer is returned once: the next await gets the next
// answer.
func TestAwaitOverlapsUntilLanded(t *testing.T) {
	const landAt, unit = 50_000, 1_000 // processor 1 sends an answer every landAt cycles
	for _, work := range []bool{true, false} {
		var (
			ctxs       []*Ctx
			sent       [2]sim.Time
			got        [2]any
			calls      int
			overlapped sim.Time // processor 0's clock after its last overlap unit
			stall      uint64
			late       []string
		)
		land := func(s *sim.Svc, m *sim.Msg) { ctxs[0].Land(s, m.Payload) }
		m := Assemble(memsys.Default().ForProcs(2), NewIdeal(0), Script{Homes: []int{0}, Do: func(c *Ctx) {
			if c.ID == 1 {
				for i := range 2 {
					c.Compute(landAt)
					sent[i] = c.P.Clock
					c.E.SendFrom(c.P, stats.Busy, 0, 0, 8, i, land)
				}
				return
			}
			overlap := func() bool {
				if c.answered {
					late = append(late, fmt.Sprintf("overlap called at cycle %d after the answer landed", c.P.Clock))
				}
				calls++
				c.Compute(unit)
				overlapped = c.P.Clock
				return work
			}
			for i := range 2 {
				before := c.P.Stats.Breakdown[stats.Data]
				got[i] = c.Await(stats.Data, overlap)
				stall += c.P.Stats.Breakdown[stats.Data] - before
				if c.answered || c.answer != nil {
					late = append(late, fmt.Sprintf("await %d left the answer %v in the landing zone", i, c.answer))
				}
			}
		}}, nil, nil, nil)
		ctxs = m.Ctxs
		if m.Run() {
			t.Fatalf("work %v: deadlocked", work)
		}
		for _, l := range late {
			t.Errorf("work %v: %s", work, l)
		}
		if got != [2]any{0, 1} {
			t.Errorf("work %v: the awaits returned %v, want [0 1]", work, got)
		}
		if work {
			if overlapped < sent[1] {
				t.Errorf("work %v: the overlap stopped at cycle %d, before the last answer was sent at %d", work, overlapped, sent[1])
			}
			if stall != 0 {
				t.Errorf("work %v: %d cycles stalled behind work that was at hand", work, stall)
			}
			continue
		}
		if calls != 2 {
			t.Errorf("work %v: overlap ran %d times, want once per await", work, calls)
		}
		if stall == 0 {
			t.Errorf("work %v: nothing stalled and charged to the await's category", work)
		}
	}
}

// TestLandingGuards: an answer landing while another is pending, and a
// processor asking for one while another is pending, each panic naming
// the processor.
func TestLandingGuards(t *testing.T) {
	e := sim.New(memsys.Default().ForProcs(4), stats.NewRun("t", "t", 4))
	asks := map[string]func(c *Ctx){
		"land":    func(c *Ctx) { c.Land(&sim.Svc{E: e, P: c.P}, 2) },
		"request": func(c *Ctx) { (&LockMgr{}).Request(c, 0, 8) },
		"call":    func(c *Ctx) { c.Call(stats.Data, 0, 8, nil, nil) },
		"arrive":  func(c *Ctx) { (&Relay{}).Arrive(c, 8, nil, nil) },
	}
	for name, ask := range asks {
		c := NewCtx(e.Procs[3], e, nil, nil, nil, 3, 4)
		c.Land(&sim.Svc{E: e, P: c.P}, 1)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "processor 3") {
					t.Errorf("%s with an answer pending: panic %q, want one naming processor 3", name, msg)
				}
			}()
			ask(c)
		}()
	}
}
