package proto

import (
	"bytes"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// pageRig runs one body per processor on a machine whose four pages are
// all homed at processor 0 — page pg starts filled with the byte 64*pg —
// every processor with a memory of its own, under a fault schedule when
// faults names one.
func pageRig(t *testing.T, faults string, delta PageDelta, bodies ...func(h *PageHome, c *Ctx)) {
	t.Helper()
	p := memsys.Default().ForProcs(len(bodies))
	e := sim.New(p, stats.NewRun("t", "t", p.NumProcs))
	if faults != "" {
		cfg, err := fault.ParseSpec(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 7
		e.EnableFaults(cfg)
	}
	space := mem.NewSpace(p.PageSize)
	base := space.Alloc("data", 4*p.PageSize, 0)
	for pg := 0; pg < 4; pg++ {
		space.WriteInit(base+pg*p.PageSize, bytes.Repeat([]byte{byte(64 * pg)}, p.PageSize))
	}
	ctxs := make([]*Ctx, p.NumProcs)
	for i := range ctxs {
		ctxs[i] = NewCtx(e.Procs[i], e, mem.NewProcMem(space, i), space, nil, i, p.NumProcs)
	}
	h := &PageHome{}
	h.InitPageHome(ctxs, delta)
	for i, body := range bodies {
		e.Spawn(i, func(*sim.Proc) { body(h, ctxs[i]) })
	}
	e.Start()
	if e.Deadlocked {
		t.Fatal("rig deadlocked")
	}
}

func idle(*PageHome, *Ctx) {}

// TestFetchPageAllocatesNoPage: once the home has a snapshot to recycle, a
// fetch round trip allocates only the reply record boxed into its message.
func TestFetchPageAllocatesNoPage(t *testing.T) {
	var allocs float64
	pageRig(t, "", nil, idle, func(h *PageHome, c *Ctx) {
		h.FetchPage(c, 1, 0) // warm-up: the frame (the first snapshot, adopted), the message pool
		allocs = testing.AllocsPerRun(100, func() { h.FetchPage(c, 1, 0) })
		if got := c.M.Frame(1).Data; !bytes.Equal(got, bytes.Repeat([]byte{64}, len(got))) {
			t.Error("fetched page does not hold the home's bytes")
		}
	})
	if allocs > 1 {
		t.Errorf("a warm fetch round trip makes %v allocations, want at most the reply record", allocs)
	}
}

// TestFetchPageAdoptsColdSnapshot: the first fetch of a page never touched
// here makes the reply's snapshot the frame — no initial-image copy made
// only to be overwritten, nothing handed back to the home — and a later
// fetch copies into that frame and returns its snapshot for the next reply.
func TestFetchPageAdoptsColdSnapshot(t *testing.T) {
	pageRig(t, "", nil, idle, func(h *PageHome, c *Ctx) {
		if c.M.Peek(2).Data != nil {
			t.Fatal("page 2 materialised before it was fetched")
		}
		h.FetchPage(c, 2, 0)
		frame := c.M.Peek(2).Data
		if !bytes.Equal(frame, bytes.Repeat([]byte{128}, c.S.PageSize())) {
			t.Fatal("cold fetch: the frame does not hold the home's bytes")
		}
		if s := h.snaps.Get(); s != nil {
			t.Fatal("cold fetch: the snapshot went back to the home although the frame adopted it")
		}
		c.M.Write(c.S.PageBase(2), []byte{1, 2, 3})
		h.FetchPage(c, 2, 0)
		if got := c.M.Peek(2).Data; &got[0] != &frame[0] || got[0] != 128 {
			t.Fatalf("warm fetch: frame replaced %v, first byte %d; want the same frame holding the home's copy again", &got[0] != &frame[0], got[0])
		}
		if s := h.snaps.Get(); s == nil || &s[:1][0] == &frame[0] {
			t.Fatal("warm fetch: the snapshot must come back to the home, and must not be the frame")
		}
	})
}

// TestFetchPageSnapshots: a reply carries the page as it stood when the
// home served it, in a buffer of its own until the requester has copied
// it out. Two requesters fetch two pages in step, so the home serves the
// second while the first reply is in flight, and the home rewrites each
// page right after snapshotting it (the delta, which runs at the home
// between the snapshot and the send, does the rewriting and ships the
// byte the snapshot was filled with). Under the fault presets replies are
// dropped, duplicated and retransmitted after their snapshot went back to
// the home and out again.
func TestFetchPageSnapshots(t *testing.T) {
	const rounds = 60
	for _, faults := range []string{"", "light", "heavy"} {
		t.Run("faults="+faults, func(t *testing.T) {
			inFlight, most, fetches := 0, 0, 0
			var homeMem *mem.ProcMem
			delta := func(home, page, from int) (any, int) {
				if inFlight++; inFlight > most {
					most = inFlight
				}
				data := homeMem.Frame(page).Data
				was := data[0]
				for i := range data {
					data[i] = was + 1
				}
				return was, 0
			}
			requester := func(h *PageHome, c *Ctx) {
				page := c.ID
				for r := 0; r < rounds; r++ {
					served := h.FetchPage(c, page, 0).(byte)
					inFlight--
					fetches++
					got := c.M.Frame(page).Data
					if want := byte(64*page + r); served != want || !bytes.Equal(got, bytes.Repeat([]byte{want}, len(got))) {
						t.Errorf("processor %d, round %d: home served %d, frame holds %d…%d, want %d throughout",
							c.ID, r, served, got[0], got[len(got)-1], want)
						return
					}
				}
			}
			pageRig(t, faults, delta, func(_ *PageHome, c *Ctx) { homeMem = c.M }, requester, requester)
			if fetches != 2*rounds || most < 2 {
				t.Fatalf("%d fetches, at most %d in flight; want %d and two outstanding at once", fetches, most, 2*rounds)
			}
		})
	}
}
