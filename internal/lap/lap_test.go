package lap

import (
	"testing"
	"testing/quick"
)

func TestWaitQueueDominates(t *testing.T) {
	p := New(16, 2)
	p.Enqueue(7)
	p.Enqueue(3)
	us := p.UpdateSet(0)
	if len(us) != 1 || us[0] != 7 {
		t.Fatalf("UpdateSet = %v, want [7] (queue head alone)", us)
	}
}

func TestQueueFIFO(t *testing.T) {
	p := New(4, 2)
	p.Enqueue(1)
	p.Enqueue(2)
	if p.QueueLen() != 2 {
		t.Fatal("queue length")
	}
	if p.PickNext(0).Proc != 1 || p.PickNext(1).Proc != 2 || p.PickNext(2).Proc != -1 {
		t.Fatal("pick order")
	}
}

func TestAffinitySetThreshold(t *testing.T) {
	p := New(4, 2)
	// Transfers from 0: 0->1 x5, 0->2 x1. avg = (5+1)/3 = 2; threshold
	// 1.6*2 = 3.2; only proc 1 (5 >= 3.2) qualifies.
	for i := 0; i < 5; i++ {
		p.Granted(1, 0)
		p.Granted(0, 1) // move it back so 0 is holder again
	}
	p.Granted(2, 0)
	set := p.AffinitySet(0)
	if len(set) != 1 || set[0] != 1 {
		t.Fatalf("AffinitySet = %v, want [1]", set)
	}
}

func TestAffinitySetEmptyHistory(t *testing.T) {
	p := New(8, 2)
	if set := p.AffinitySet(3); set != nil {
		t.Fatalf("AffinitySet with no history = %v, want nil", set)
	}
}

// TestUpdateSetSizeAtLeastOne: an update-set size below 1 is taken as 1,
// so a predictor always pushes to someone when it has a candidate.
func TestUpdateSetSizeAtLeastOne(t *testing.T) {
	p := New(8, 0)
	p.Notice(4)
	p.Notice(5)
	if us := p.UpdateSet(0); len(us) != 1 || us[0] != 4 {
		t.Fatalf("UpdateSet with Ns 0 = %v, want [4] (Ns 1)", us)
	}
}

func TestNoticeVirtualQueue(t *testing.T) {
	p := New(8, 2)
	p.Notice(4)
	p.Notice(5)
	p.Notice(4) // duplicate ignored
	us := p.UpdateSet(0)
	if len(us) != 2 || us[0] != 4 || us[1] != 5 {
		t.Fatalf("UpdateSet = %v, want [4 5] (virtual queue order)", us)
	}
	// Granting to 4 removes it from the virtual queue.
	p.Granted(4, -1)
	us = p.UpdateSet(4)
	for _, q := range us {
		if q == 4 {
			t.Fatal("grantee still in its own update set")
		}
	}
}

func TestUpdateSetCombination(t *testing.T) {
	p := New(8, 3)
	// Affinity history: 0->1 strong.
	for i := 0; i < 4; i++ {
		p.Granted(1, 0)
		p.Granted(0, 1)
	}
	// Virtual queue: 5, 2.
	p.Notice(5)
	p.Notice(2)
	us := p.UpdateSet(0)
	// Step 2: affinity set [1]; step 3: virtQ with positive affinity
	// (none beyond 1); step 4: virtual queue order 5, 2.
	want := []int{1, 5, 2}
	if len(us) != len(want) {
		t.Fatalf("UpdateSet = %v, want %v", us, want)
	}
	for i := range want {
		if us[i] != want[i] {
			t.Fatalf("UpdateSet = %v, want %v", us, want)
		}
	}
}

func TestUpdateSetInvariants(t *testing.T) {
	// For any event sequence: |US| <= Ns (except the waitQ head case
	// where it is exactly 1), never contains the holder, no duplicates.
	f := func(events []uint8, ns uint8) bool {
		n := 8
		size := int(ns)%3 + 1
		p := New(n, size)
		holder := 0
		queued := map[int]bool{}
		for _, e := range events {
			proc := int(e) % n
			switch e % 3 {
			case 0:
				p.Notice(proc)
			case 1:
				// A real manager only queues a processor that is
				// neither the holder nor already waiting.
				if proc != holder && !queued[proc] {
					p.Enqueue(proc)
					queued[proc] = true
				}
			case 2:
				if queued[proc] {
					continue // waiting procs acquire via dequeue
				}
				if h := p.PickNext(holder).Proc; h >= 0 {
					delete(queued, h)
					p.Granted(h, holder)
					holder = h
				} else {
					p.Granted(proc, holder)
					holder = proc
				}
			}
			us := p.UpdateSet(holder)
			if len(us) > size && !(p.QueueLen() > 0 && len(us) == 1) {
				return false
			}
			seen := map[int]bool{}
			for _, q := range us {
				if q == holder || seen[q] || q < 0 || q >= n {
					return false
				}
				seen[q] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRates(t *testing.T) {
	p := New(4, 2)
	p.Granted(1, -1) // first grant: nothing to evaluate
	p.Granted(2, 1)  // evaluated against prediction made for 1
	p.Granted(2, 2)  // self transfer: trivially correct
	s := p.Stats
	if s.Acquires != 3 {
		t.Fatalf("acquires = %d", s.Acquires)
	}
	if s.Evaluated != 2 {
		t.Fatalf("evaluated = %d, want 2", s.Evaluated)
	}
	if s.SelfTransfers != 1 {
		t.Fatalf("self transfers = %d, want 1", s.SelfTransfers)
	}
	for i, hits := range []uint64{s.HitFull, s.HitWaitQ, s.HitWaitAff, s.HitWaitVirt} {
		if hits > s.Evaluated {
			t.Fatalf("technique %d hits %d of %d evaluated", i, hits, s.Evaluated)
		}
	}
}

// TestRateUnevaluated: a lock's first grant has no prediction to judge,
// so it counts no evaluation and no hit.
func TestRateUnevaluated(t *testing.T) {
	p := New(4, 2)
	p.Granted(1, -1)
	if s := p.Stats; s.Evaluated != 0 || s.HitFull+s.HitWaitQ+s.HitWaitAff+s.HitWaitVirt != 0 {
		t.Fatalf("first grant evaluated: %+v", s)
	}
}

func TestPerfectChainPrediction(t *testing.T) {
	// A perfectly round-robin lock with a full waiting queue: the
	// waiting-queue technique should predict every transfer.
	p := New(4, 2)
	p.Granted(0, -1)
	holder := 0
	p.Enqueue(1)
	for i := 0; i < 40; i++ {
		// While the holder works, another processor starts waiting, so
		// the queue is non-empty at every grant.
		p.Enqueue((holder + 2) % 4)
		next := p.PickNext(holder).Proc
		p.Granted(next, holder)
		holder = next
	}
	s := p.Stats
	if s.Evaluated == 0 || 100*s.HitWaitQ < 95*s.Evaluated {
		t.Fatalf("waitQ hits %d of %d, want ~all", s.HitWaitQ, s.Evaluated)
	}
	if 100*s.HitFull < 95*s.Evaluated {
		t.Fatalf("full hits %d of %d, want ~all", s.HitFull, s.Evaluated)
	}
}

func TestAffinityLearnsRing(t *testing.T) {
	// Ring hand-off without contention: after warm-up, affinity alone
	// predicts the next acquirer.
	p := New(4, 2)
	prev := -1
	for lap := 0; lap < 20; lap++ {
		for q := 0; q < 4; q++ {
			p.Granted(q, prev)
			prev = q
		}
	}
	if s := p.Stats; s.Evaluated == 0 || 100*s.HitFull < 70*s.Evaluated {
		t.Fatalf("ring prediction hits %d of %d, want >= 70 %%", s.HitFull, s.Evaluated)
	}
}
