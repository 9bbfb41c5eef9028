package lockpolicy

import (
	"slices"
	"testing"
	"testing/quick"
)

// fakeOracle scripts the predictor knowledge the affinity policy consults.
type fakeOracle struct {
	aff  map[[2]int]uint32
	warm []int
}

func (o *fakeOracle) Affinity(from, to int) uint32 { return o.aff[[2]int{from, to}] }
func (o *fakeOracle) Predicted() []int             { return o.warm }

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"", FIFO}, {"fifo", FIFO}, {"mcs", MCS}, {"affinity", Affinity}, {"lease", Lease},
	} {
		k, err := Parse(tc.in)
		if err != nil || k != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.in, k, err, tc.want)
		}
	}
	if _, err := Parse("ticket"); err == nil {
		t.Error("Parse of unknown policy succeeded")
	}
}

func TestKindsCoverNew(t *testing.T) {
	for _, k := range Kinds() {
		q := New(k, nil)
		if q.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, q.Kind())
		}
	}
}

func TestFIFOOrderAndCosts(t *testing.T) {
	q := New(FIFO, nil)
	if q.RequestElems() != 1 {
		t.Fatalf("empty-queue RequestElems = %d, want 1", q.RequestElems())
	}
	for _, p := range []int{4, 2, 9} {
		q.Enqueue(p)
	}
	if q.RequestElems() != 4 {
		t.Fatalf("RequestElems = %d, want 1+3", q.RequestElems())
	}
	if q.GrantElems() != 0 {
		t.Fatalf("fifo GrantElems = %d, want 0", q.GrantElems())
	}
	if got := q.PeekNext(7); got != 4 {
		t.Fatalf("PeekNext = %d, want 4", got)
	}
	for _, want := range []int{4, 2, 9} {
		pk := q.PickNext(7)
		if pk.Proc != want || pk.Bypassed != 0 || pk.Renewal {
			t.Fatalf("PickNext = %+v, want proc %d in arrival order", pk, want)
		}
	}
	if pk := q.PickNext(7); pk.Proc != -1 {
		t.Fatalf("empty PickNext = %+v, want -1", pk)
	}
}

func TestMCSOrderMatchesFIFOAtConstantCost(t *testing.T) {
	f, m := New(FIFO, nil), New(MCS, nil)
	for _, p := range []int{5, 1, 8, 3} {
		f.Enqueue(p)
		m.Enqueue(p)
	}
	if m.RequestElems() != 2 {
		t.Fatalf("mcs RequestElems = %d, want the O(1) constant 2", m.RequestElems())
	}
	for f.Len() > 0 {
		if fp, mp := f.PickNext(0).Proc, m.PickNext(0).Proc; fp != mp {
			t.Fatalf("mcs grant order diverged from fifo: %d vs %d", mp, fp)
		}
	}
	if m.Len() != 0 {
		t.Fatal("mcs queue not drained with fifo")
	}
}

func TestAffinityPrefersWarmWaiter(t *testing.T) {
	o := &fakeOracle{warm: []int{6}}
	q := New(Affinity, o)
	q.Enqueue(2)
	q.Enqueue(6)
	if got := q.PeekNext(0); got != 6 {
		t.Fatalf("PeekNext = %d, want the warm waiter 6", got)
	}
	pk := q.PickNext(0)
	if pk.Proc != 6 || pk.Bypassed != 1 {
		t.Fatalf("PickNext = %+v, want warm waiter 6 bypassing 1", pk)
	}
	// Next grant is the remaining waiter.
	if pk := q.PickNext(6); pk.Proc != 2 {
		t.Fatalf("PickNext = %+v, want 2", pk)
	}
}

func TestAffinityFallsBackToTransferCounts(t *testing.T) {
	o := &fakeOracle{aff: map[[2]int]uint32{{0, 9}: 5, {0, 2}: 1}}
	q := New(Affinity, o)
	q.Enqueue(2)
	q.Enqueue(9)
	if pk := q.PickNext(0); pk.Proc != 9 {
		t.Fatalf("PickNext = %+v, want highest-affinity waiter 9", pk)
	}
}

func TestAffinityDegeneratesToFIFO(t *testing.T) {
	// Nil oracle, unknown releaser, or all-zero history: arrival order.
	for _, q := range []Queue{New(Affinity, nil), New(Affinity, &fakeOracle{})} {
		q.Enqueue(3)
		q.Enqueue(1)
		if pk := q.PickNext(-1); pk.Proc != 3 || pk.Bypassed != 0 {
			t.Fatalf("PickNext = %+v, want fifo head 3", pk)
		}
		if pk := q.PickNext(0); pk.Proc != 1 {
			t.Fatalf("PickNext = %+v, want 1", pk)
		}
	}
}

func TestAffinityBypassBound(t *testing.T) {
	// Waiter 1 is cold; a stream of warm re-arrivals may bypass it only
	// MaxBypass times before it is forced.
	o := &fakeOracle{warm: []int{9}}
	q := New(Affinity, o)
	q.Enqueue(1)
	bypasses := 0
	for i := 0; i < MaxBypass+3; i++ {
		q.Enqueue(9)
		pk := q.PickNext(0)
		if pk.Proc == 1 {
			break
		}
		bypasses++
	}
	if bypasses != MaxBypass {
		t.Fatalf("waiter 1 bypassed %d times, want exactly MaxBypass=%d before being forced", bypasses, MaxBypass)
	}
	if q.PeekNext(0) != 9 {
		t.Fatalf("after the forced grant the warm waiter should be next, got %d", q.PeekNext(0))
	}
}

func TestLeaseRenewal(t *testing.T) {
	q := New(Lease, nil)
	q.Enqueue(4)
	if pk := q.PickNext(-1); pk.Proc != 4 || pk.Renewal {
		t.Fatalf("first grant = %+v, want 4 taking the lease", pk)
	}
	// The leaseholder re-requests behind another waiter and keeps winning
	// until LeaseLength consecutive grants are spent.
	renewals, handedOff := 0, false
	q.Enqueue(7)
	for i := 0; i < LeaseLength+2; i++ {
		q.Enqueue(4)
		pk := q.PickNext(4)
		if pk.Proc == 7 {
			handedOff = true
			break
		}
		if pk.Proc != 4 {
			t.Fatalf("grant %d = %+v, want leaseholder 4 or handoff to 7", i, pk)
		}
		if !pk.Renewal {
			t.Fatalf("grant %d to leaseholder past waiter 7 not marked Renewal", i)
		}
		renewals++
	}
	// The first grant used 1 of the LeaseLength consecutive grants, so
	// LeaseLength-1 renewals remain before the lease is spent.
	if renewals != LeaseLength-1 {
		t.Fatalf("leaseholder renewed %d times, want %d", renewals, LeaseLength-1)
	}
	if !handedOff {
		t.Fatal("spent lease never handed off to waiter 7")
	}
}

func TestLeaseBypassBound(t *testing.T) {
	q := New(Lease, nil)
	q.Enqueue(4)
	if q.PickNext(-1).Proc != 4 {
		t.Fatal("setup grant")
	}
	// Fresh leases each handoff: holder alternates but waiter 1 stays
	// queued. Its bypass count must cap at MaxBypass.
	q.Enqueue(1)
	bypasses := 0
	holder := 4
	for i := 0; i < 3*MaxBypass; i++ {
		q.Enqueue(holder)
		pk := q.PickNext(holder)
		if pk.Proc == 1 {
			break
		}
		holder = pk.Proc
		bypasses++
	}
	if bypasses > MaxBypass {
		t.Fatalf("waiter 1 bypassed %d times, bound is %d", bypasses, MaxBypass)
	}
}

// TestLeaseBypassBoundAcrossTenures: bypasses add up across leaseholders.
// Waiter 2 is passed over three times by 0's tenure and once more by 1's,
// so the bound grants it while 1's lease is still live.
func TestLeaseBypassBoundAcrossTenures(t *testing.T) {
	q := New(Lease, nil)
	q.Enqueue(0)
	q.PickNext(-1) // 0 takes the lease
	q.Enqueue(1)
	q.Enqueue(2)
	var got []int
	var last Pick
	for holder := 0; len(got) < 3*LeaseLength && last.Proc != 2; holder = last.Proc {
		q.Enqueue(holder) // the holder re-requests at once
		last = q.PickNext(holder)
		got = append(got, last.Proc)
	}
	if want := []int{0, 0, 0, 1, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
	if last.Renewal {
		t.Error("the forced grant is marked a renewal")
	}
}

// TestNoLostWakeupsAllPolicies drives every policy with a random request
// stream and checks the queue invariants every grant discipline must
// keep: each pick returns a previously enqueued waiter exactly once
// (no lost wakeups, no phantom grants), Len tracks the model, and no
// waiter is ever bypassed more than MaxBypass times.
func TestNoLostWakeupsAllPolicies(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(ops []uint8) bool {
				o := &fakeOracle{aff: map[[2]int]uint32{}, warm: nil}
				q := New(kind, o)
				waiting := map[int]int{} // proc -> times bypassed
				releaser := -1
				next := 0
				for _, op := range ops {
					if op%3 != 0 { // enqueue twice as often as pick
						p := next
						next++
						if _, dup := waiting[p]; dup {
							continue
						}
						q.Enqueue(p)
						waiting[p] = 0
						o.aff[[2]int{releaser, p}] = uint32(op)
						if op%5 == 0 {
							o.warm = []int{p}
						}
						continue
					}
					pk := q.PickNext(releaser)
					if len(waiting) == 0 {
						if pk.Proc != -1 {
							t.Fatalf("%v: pick %d from empty queue", kind, pk.Proc)
						}
						continue
					}
					if _, ok := waiting[pk.Proc]; !ok {
						t.Fatalf("%v: granted %d which was not waiting", kind, pk.Proc)
					}
					delete(waiting, pk.Proc)
					for p := range waiting {
						if p < pk.Proc { // arrived earlier (ids are arrival-ordered)
							waiting[p]++
							if waiting[p] > MaxBypass {
								t.Fatalf("%v: waiter %d bypassed %d times (> %d)", kind, p, waiting[p], MaxBypass)
							}
						}
					}
					if kind == FIFO || kind == MCS {
						for p := range waiting {
							if p < pk.Proc {
								t.Fatalf("%v claims FIFO fairness but granted %d past %d", kind, pk.Proc, p)
							}
						}
					}
					releaser = pk.Proc
				}
				if q.Len() != len(waiting) {
					t.Fatalf("%v: Len = %d, model has %d", kind, q.Len(), len(waiting))
				}
				// Drain: every waiter must eventually be granted.
				for q.Len() > 0 {
					pk := q.PickNext(releaser)
					if _, ok := waiting[pk.Proc]; !ok {
						t.Fatalf("%v: drain granted non-waiter %d", kind, pk.Proc)
					}
					delete(waiting, pk.Proc)
					releaser = pk.Proc
				}
				if len(waiting) != 0 {
					t.Fatalf("%v: lost wakeups for %v", kind, waiting)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRemoveReplaysPick: the failover-replay contract (internal/recover).
// A replica queue fed Enqueue(p) / Remove(pick.Proc) in the order the live
// queue performed Enqueue / PickNext must end up in an indistinguishable
// state: same waiters, same bypass pressure, same lease tenure — proven by
// draining both queues afterwards and demanding identical grant sequences.
func TestRemoveReplaysPick(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(ops []uint8) bool {
				o := &fakeOracle{aff: map[[2]int]uint32{}}
				live, replica := New(kind, o), New(kind, o)
				releaser := -1
				next := 0
				for _, op := range ops {
					if op%3 != 0 {
						live.Enqueue(next)
						replica.Enqueue(next)
						o.aff[[2]int{releaser, next}] = uint32(op)
						if op%5 == 0 {
							o.warm = []int{next}
						}
						next++
						continue
					}
					pk := live.PickNext(releaser)
					if pk.Proc < 0 {
						if replica.Remove(-1) {
							t.Fatalf("%v: replica removed a phantom", kind)
						}
						continue
					}
					if !replica.Remove(pk.Proc) {
						t.Fatalf("%v: replica missing waiter %d", kind, pk.Proc)
					}
					releaser = pk.Proc
				}
				if live.Len() != replica.Len() {
					t.Fatalf("%v: Len %d vs %d", kind, live.Len(), replica.Len())
				}
				lw, rw := live.Waiters(nil), replica.Waiters(nil)
				for i := range lw {
					if lw[i] != rw[i] {
						t.Fatalf("%v: waiters diverged: %v vs %v", kind, lw, rw)
					}
				}
				// The decisive check: both queues grant identically from
				// here on, so bypass counters and lease tenure replayed too.
				for live.Len() > 0 {
					lp, rp := live.PickNext(releaser), replica.PickNext(releaser)
					if lp != rp {
						t.Fatalf("%v: post-replay drain diverged: %+v vs %+v", kind, lp, rp)
					}
					releaser = lp.Proc
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPeekMatchesPick: PeekNext must be a pure preview of PickNext.
func TestPeekMatchesPick(t *testing.T) {
	for _, kind := range Kinds() {
		o := &fakeOracle{aff: map[[2]int]uint32{{0, 5}: 3}, warm: []int{6}}
		q := New(kind, o)
		for _, p := range []int{2, 5, 6, 1} {
			q.Enqueue(p)
		}
		releaser := 0
		for q.Len() > 0 {
			peek := q.PeekNext(releaser)
			if pk := q.PickNext(releaser); pk.Proc != peek {
				t.Fatalf("%v: PeekNext = %d but PickNext = %d", kind, peek, pk.Proc)
			}
			releaser = peek
		}
	}
}

func TestWaitersArrivalOrder(t *testing.T) {
	for _, kind := range Kinds() {
		q := New(kind, nil)
		for _, p := range []int{9, 3, 7} {
			q.Enqueue(p)
		}
		w := q.Waiters(nil)
		if len(w) != 3 || w[0] != 9 || w[1] != 3 || w[2] != 7 {
			t.Fatalf("%v: Waiters = %v, want arrival order [9 3 7]", kind, w)
		}
	}
}

// TestQueueCycleDoesNotAllocate: a waiting queue keeps its backing array,
// so filling it with every processor and draining it again allocates
// nothing in steady state. The head-popping queues copy down on PickNext;
// reslicing past the head would shrink the capacity and make Enqueue
// regrow it.
func TestQueueCycleDoesNotAllocate(t *testing.T) {
	for _, k := range Kinds() {
		q := New(k, &fakeOracle{})
		cycle := func() {
			for p := range 16 {
				q.Enqueue(p)
			}
			for q.Len() > 0 {
				q.PickNext(0)
			}
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: an Enqueue/PickNext cycle allocates %v objects/op, want 0", k, n)
		}
	}
}
