package predict

import (
	"math"
	"testing"

	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
)

// TestMVAUncontended: with one customer there is never a queue, so the
// predicted wait is exactly the handoff overhead and the throughput is
// one acquisition per full cycle.
func TestMVAUncontended(t *testing.T) {
	in := Inputs{Procs: 1, HoldCycles: 1000, ThinkCycles: 9000, HandoffCycles: 500}
	out := MVA(in)
	if math.Abs(out.WaitCycles-500) > 1e-9 {
		t.Errorf("wait = %g, want the bare handoff 500", out.WaitCycles)
	}
	wantX := 1.0 / (1000 + 500 + 9000)
	if math.Abs(out.Throughput-wantX) > 1e-15 {
		t.Errorf("throughput = %g, want %g", out.Throughput, wantX)
	}
	if out.QueueLen >= 1 {
		t.Errorf("queue length %g >= 1 with a single customer", out.QueueLen)
	}
}

// TestMVAMonotoneInContention: adding customers can only lengthen the
// queue and the wait, and the station can never serve faster than 1/s.
func TestMVAMonotoneInContention(t *testing.T) {
	base := Inputs{HoldCycles: 2000, ThinkCycles: 4000, HandoffCycles: 800}
	s := base.HoldCycles + base.HandoffCycles
	prevWait := -1.0
	for n := 1; n <= 64; n *= 2 {
		in := base
		in.Procs = n
		out := MVA(in)
		if out.WaitCycles < prevWait {
			t.Errorf("wait shrank from %g to %g going to %d procs", prevWait, out.WaitCycles, n)
		}
		prevWait = out.WaitCycles
		if out.Throughput > 1/s+1e-12 {
			t.Errorf("throughput %g exceeds the service ceiling %g at %d procs",
				out.Throughput, 1/s, n)
		}
	}
}

// TestMVASaturation: with many customers and no think time the server
// saturates — throughput approaches exactly 1/s.
func TestMVASaturation(t *testing.T) {
	in := Inputs{Procs: 256, HoldCycles: 1000, ThinkCycles: 0, HandoffCycles: 0}
	out := MVA(in)
	if math.Abs(out.Throughput-1.0/1000) > 1e-9 {
		t.Errorf("saturated throughput = %g, want 1/1000", out.Throughput)
	}
	// Everyone but the holder waits the full line ahead of them.
	if out.QueueLen < 255 {
		t.Errorf("saturated queue length = %g, want ~256", out.QueueLen)
	}
}

// TestMVADegenerate: empty populations and zero service collapse to the
// zero outcome instead of dividing by zero.
func TestMVADegenerate(t *testing.T) {
	for _, in := range []Inputs{
		{Procs: 0, HoldCycles: 100},
		{Procs: 4, HoldCycles: 0, HandoffCycles: 0},
	} {
		if out := MVA(in); out != (Outcome{}) {
			t.Errorf("MVA(%+v) = %+v, want zero outcome", in, out)
		}
	}
}

// TestHandoffPolicyShape: the handoff overhead orders the policies the
// way their list-charge shapes say it must at a non-trivial queue — MCS
// cheapest (constant), FIFO next, lease adds a constant on FIFO, affinity
// adds a full queue scan.
func TestHandoffPolicyShape(t *testing.T) {
	p := memsys.Default()
	const q, ns = 3.0, 2
	mcs := Handoff(p, lockpolicy.MCS, q, ns)
	fifo := Handoff(p, lockpolicy.FIFO, q, ns)
	lease := Handoff(p, lockpolicy.Lease, q, ns)
	aff := Handoff(p, lockpolicy.Affinity, q, ns)
	if !(mcs < fifo && fifo < lease && lease < aff) {
		t.Errorf("handoff order violated: mcs=%g fifo=%g lease=%g aff=%g",
			mcs, fifo, lease, aff)
	}
	// The messaging legs dominate: two one-way legs of at least the
	// software overhead plus the interrupt each.
	floor := 2 * float64(p.MsgOverheadCycles+p.InterruptCycles)
	if mcs < floor {
		t.Errorf("handoff %g below the two-leg messaging floor %g", mcs, floor)
	}
}

// TestHandoffClampsNegativeQueue: a negative mean queue (possible from an
// empty histogram) is treated as empty, not as a credit.
func TestHandoffClampsNegativeQueue(t *testing.T) {
	p := memsys.Default()
	if got, want := Handoff(p, lockpolicy.FIFO, -5, 0), Handoff(p, lockpolicy.FIFO, 0, 0); got != want {
		t.Errorf("Handoff(q=-5) = %g, want the q=0 value %g", got, want)
	}
}

// TestMVAClampsNegativeWait: the predicted wait R - H is never negative.
// With a non-negative handoff it cannot be — R is at least s = H + O — so
// only a negative handoff, which no measured histogram mean gives, reaches
// the clamp; it reads as no wait, not as a credit.
func TestMVAClampsNegativeWait(t *testing.T) {
	out := MVA(Inputs{Procs: 1, HoldCycles: 1000, ThinkCycles: 9000, HandoffCycles: -400})
	if out.WaitCycles != 0 {
		t.Errorf("wait = %g with a handoff of -400 cycles, want the clamp's 0", out.WaitCycles)
	}
	if want := 1.0 / (600 + 9000); math.Abs(out.Throughput-want) > 1e-15 {
		t.Errorf("throughput = %g, want %g: the clamp reaches only the wait", out.Throughput, want)
	}
}

// TestMeanHopsDegenerateMesh: a mesh with no column or no row has no
// distance to cross — the guard returns 0 rather than the formula's
// division by zero or a negative distance — so a message across it costs
// what one across a single node does.
func TestMeanHopsDegenerateMesh(t *testing.T) {
	for _, wh := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {1, 1}} {
		if got := meanHops(wh[0], wh[1]); got != 0 {
			t.Errorf("meanHops(%d, %d) = %g, want 0", wh[0], wh[1], got)
		}
	}
	one, none := memsys.Default(), memsys.Default()
	one.MeshW, one.MeshH = 1, 1
	none.MeshW = 0
	if got, want := Handoff(none, lockpolicy.FIFO, 1, 2), Handoff(one, lockpolicy.FIFO, 1, 2); got != want {
		t.Errorf("handoff on a zero-width mesh = %g, want the single node's %g", got, want)
	}
	if got := meanHops(4, 4); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("meanHops(4, 4) = %g, want 2 × 15/12 = 2.5", got)
	}
}
