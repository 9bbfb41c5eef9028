package munin

import (
	"encoding/binary"
	"fmt"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// The update/copyset path, on a rig of five processors sharing two pages:
// page 0 homed at processor 0, page 1 at processor 2. Processor 1 takes
// lock 0, writes a word of each page and releases, so its flush diffs both
// pages and ships each to its home, which forwards it — or, restricted by
// LAP, an invalidation — to every other sharer.
const (
	rigProcs    = 5
	rigReleaser = 1
	rigUS       = 3 // the update set the LAP runs are granted
)

var rigHomes = [2]int{0, 2}

// rigValue is what the releaser writes to a page in a round.
func rigValue(round, page int) int32 { return int32(100*(round+1) + page) }

// rigCounts is what the rig saw: the processors holding both pages, and
// what the wrapped handlers saw — per processor and page, the forwarded
// updates applied and the invalidations taken; the diffs the releaser
// shipped; and the member acks the homes announced.
type rigCounts struct {
	sharing    int
	fwd, inval [rigProcs][2]int
	shipped    []*mem.Diff
	announced  int
}

// wrap counts every run of the forwarding handlers. The transport runs a
// handler once per logical message, however often the network repeats it,
// so the counts are exact under faults too.
func (pr *Munin) wrap(n *rigCounts) {
	update, fwd, inval, ack := pr.h.update, pr.h.fwdUpdate, pr.h.fwdInval, pr.h.homeAck
	pr.h.update = func(s *sim.Svc, m *sim.Msg) {
		n.shipped = append(n.shipped, m.Payload.(updateMsg).diff)
		update(s, m)
	}
	pr.h.fwdUpdate = func(s *sim.Svc, m *sim.Msg) {
		n.fwd[m.To][m.Payload.(fwdMsg).page]++
		fwd(s, m)
	}
	pr.h.fwdInval = func(s *sim.Svc, m *sim.Msg) {
		n.inval[m.To][m.Payload.(fwdMsg).page]++
		inval(s, m)
	}
	pr.h.homeAck = func(s *sim.Svc, m *sim.Msg) {
		n.announced += m.Payload.(int)
		ack(s, m)
	}
}

// run runs m to the end.
func run(t *testing.T, m *proto.Machine) {
	t.Helper()
	if m.Run() {
		t.Fatal("deadlocked")
	}
}

// waitFor spins c until another processor's body makes cond true.
func waitFor(t *testing.T, c *proto.Ctx, cond func() bool, what string) bool {
	for spins := 0; !cond(); spins++ {
		if spins == 100_000 {
			t.Errorf("processor %d waited for %s in vain", c.ID, what)
			return false
		}
		c.P.Advance(1000, stats.Busy)
	}
	return true
}

// runFlushRig runs the rig under the named fault schedule ("" for none)
// and checks the release's flush from inside the releaser, the moment it
// returns, and the pages once the run is over.
func runFlushRig(t *testing.T, faults string, seed uint64, lap bool) *stats.Run {
	var fc *fault.Config
	if faults != "" {
		cfg, err := fault.ParseSpec(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		fc = &cfg
	}
	pr := New(Options{UseLAP: lap})
	region := new(mem.Region)
	region.Acquire()
	var n rigCounts
	m := proto.Assemble(memsys.Default().ForProcs(rigProcs), pr, proto.Script{Homes: rigHomes[:], Locks: 1, Do: func(c *proto.Ctx) {
		addrs := []mem.Addr{c.S.PageBase(0), c.S.PageBase(1)}
		for _, a := range addrs {
			c.ReadI32(a)
		}
		n.sharing++
		if c.ID == rigReleaser {
			release(t, pr, c, addrs, region, &n, lap)
		}
	}}, nil, fc, region)
	pr.wrap(&n)
	run(t, m)

	for pg, home := range rigHomes {
		for q, c := range m.Ctxs {
			f := c.M.Peek(pg)
			got := int32(-1)
			if f.Valid {
				got = int32(binary.LittleEndian.Uint32(f.Data))
			}
			switch updated := !lap || q == rigUS; {
			case q == home || q == rigReleaser || updated:
				if want := rigValue(1, pg); got != want {
					t.Errorf("processor %d, page %d: reads %d after the releases, want %d", q, pg, got, want)
				}
			case f.Valid:
				t.Errorf("processor %d, page %d: outside the update set and still valid", q, pg)
			}
		}
	}
	return m.E.Run
}

// release is the releaser's part: wait until every processor holds both
// pages — no fetch in flight, which an invalidation could cross and which
// would then fetch again — write them, release lock 0 twice and check what
// each flush left behind.
func release(t *testing.T, pr *Munin, c *proto.Ctx, addrs []mem.Addr, region *mem.Region, n *rigCounts, lap bool) {
	if !waitFor(t, c, func() bool { return n.sharing == rigProcs }, "the sharers to fetch both pages") {
		return
	}
	st := pr.ps[rigReleaser]
	for round := 0; round < 2; round++ {
		pr.Acquire(c, 0)
		if lap {
			st.curLockUS = []int{rigUS}
		}
		for pg, a := range addrs {
			c.WriteI32(a, rigValue(round, pg))
		}
		handed := region.Stats().BytesHanded
		shipped := len(n.shipped)
		pr.Release(c, 0)

		// Every reader has run: both homes applied and forwarded, every
		// sharer other than the releaser and the home took exactly one
		// forward or one invalidation, and the acks are all in.
		if st.homeAcks != len(addrs) || st.memAcks != st.memWanted || st.memWanted != n.announced {
			t.Errorf("round %d: flush returned with %d home acks of %d, %d member acks of %d wanted, homes announced %d",
				round, st.homeAcks, len(addrs), st.memAcks, st.memWanted, n.announced)
		}
		for pg, home := range rigHomes {
			for q := 0; q < rigProcs; q++ {
				fwd, inval := n.fwd[q][pg], n.inval[q][pg]
				want := [2]int{1, 0} // forwards, invalidations
				switch {
				case q == home || q == rigReleaser:
					want = [2]int{0, 0}
				case lap && q != rigUS && round == 0:
					want = [2]int{0, 1}
				case lap && q != rigUS:
					want = [2]int{0, 0} // left the copyset in round 0
				}
				if [2]int{fwd, inval} != want {
					t.Errorf("round %d, page %d, processor %d: %d forwards and %d invalidations, want %v",
						round, pg, q, fwd, inval, want)
				}
			}
			wantSharers := rigProcs
			if lap {
				wantSharers = 3 // home, releaser, update set
			}
			if got := pr.pages[pg].copyset.Count(); got != wantSharers {
				t.Errorf("round %d, page %d: copyset of %d, want %d", round, pg, got, wantSharers)
			}
		}
		n.fwd, n.inval, n.announced = [rigProcs][2]int{}, [rigProcs][2]int{}, 0

		// The flush's encodings are back: its diffs are empty, and the
		// second round drew nothing from the region.
		if len(n.shipped)-shipped != len(addrs) || len(st.flushDiffs) != 0 {
			t.Errorf("round %d: %d diffs shipped, %d still held", round, len(n.shipped)-shipped, len(st.flushDiffs))
		}
		for _, d := range n.shipped[shipped:] {
			if d.EncodedBytes() != 0 {
				t.Errorf("round %d: a diff of page %d still holds its encoding", round, d.Page)
			}
		}
		if drew := region.Stats().BytesHanded - handed; round == 1 && drew != 0 {
			t.Errorf("the second release drew %d bytes from the region", drew)
		}
	}
}

// TestFlushForwardsAndAcks: plain Munin forwards each update to every
// sharer but the releaser and the home; Munin+LAP forwards to the update
// set and invalidates the rest, which leave the copyset. The flush returns
// only once every home and member ack is in, and hands its encodings back.
// Clean, and under twenty light and twenty heavy fault schedules, which
// between them must retransmit and duplicate some of the rig's messages.
func TestFlushForwardsAndAcks(t *testing.T) {
	for _, faults := range []string{"", "light", "heavy"} {
		for _, lap := range []bool{false, true} {
			t.Run(fmt.Sprintf("faults=%q/lap=%v", faults, lap), func(t *testing.T) {
				if faults == "" {
					runFlushRig(t, faults, 0, lap)
					return
				}
				var retries, dups uint64
				for seed := uint64(1); seed <= 20; seed++ {
					run := runFlushRig(t, faults, seed, lap)
					retries += run.Sum(func(p *stats.Proc) uint64 { return p.Retransmits })
					dups += run.Sum(func(p *stats.Proc) uint64 { return p.DupMsgsSuppressed })
				}
				if retries == 0 || dups == 0 {
					t.Errorf("twenty %s schedules retransmitted %d messages and suppressed %d duplicates; want some of each", faults, retries, dups)
				}
			})
		}
	}
}

// TestFaultReplaysUncommittedWrites: a sharer writes a word of the page and,
// before it flushes, loses its copy to the invalidation of another
// processor's LAP-restricted release. Its next read refetches the base and
// replays its own word over it, and its own release then ships that word
// alone, which lands at the home beside the other release's.
func TestFaultReplaysUncommittedWrites(t *testing.T) {
	pr := New(Options{UseLAP: true})
	var written, released bool
	m := proto.Assemble(memsys.Default().ForProcs(3), pr, proto.Script{Homes: []int{0}, Locks: 1, Do: func(c *proto.Ctx) {
		a := c.S.PageBase(0)
		switch c.ID {
		case 1:
			if !waitFor(t, c, func() bool { return written }, "the sharer's write") {
				return
			}
			pr.Acquire(c, 0)
			pr.ps[1].curLockUS = nil // the sharer is not a predicted acquirer
			c.WriteI32(a, 100)
			pr.Release(c, 0)
			released = true
		case 2:
			c.WriteI32(a+64, 7)
			written = true
			if !waitFor(t, c, func() bool { return released }, "the other release") {
				return
			}
			if c.M.Peek(0).Valid {
				t.Error("the release left the sharer's copy valid")
			}
			fetches := c.P.Stats.PageFetches
			if got := c.ReadI32(a); got != 100 {
				t.Errorf("the sharer reads %d written by the release, want 100", got)
			}
			if got := c.ReadI32(a + 64); got != 7 {
				t.Errorf("the sharer reads %d written by itself, want 7", got)
			}
			if n := c.P.Stats.PageFetches - fetches; n != 1 {
				t.Errorf("the sharer's read fetched %d pages, want 1", n)
			}
			c.Acquire(0)
			c.Release(0)
		}
	}}, nil, nil, nil)
	var shipped [][]int // the runs of each diff the sharer's flushes ship
	update := pr.h.update
	pr.h.update = func(s *sim.Svc, msg *sim.Msg) {
		if u := msg.Payload.(updateMsg); u.releaser == 2 {
			var runs []int
			for off := range u.diff.Runs() {
				runs = append(runs, off)
			}
			shipped = append(shipped, runs)
		}
		update(s, msg)
	}
	run(t, m)
	if fmt.Sprint(shipped) != "[[64]]" {
		t.Errorf("the sharer's flushes shipped diffs with runs at %v, want one at [64]", shipped)
	}
	home := m.Ctxs[0].M.Peek(0).Data
	if w0, w64 := binary.LittleEndian.Uint32(home), binary.LittleEndian.Uint32(home[64:]); w0 != 100 || w64 != 7 {
		t.Errorf("the home holds %d and %d, want 100 and 7", w0, w64)
	}
}
