package stats

import "testing"

func TestCategoryString(t *testing.T) {
	want := []string{"busy", "data", "synch", "ipc", "others", "recovery"}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() != want[c] {
			t.Errorf("Category(%d) = %q, want %q", c, c.String(), want[c])
		}
	}
	if Category(99).String() == "" {
		t.Error("unknown category should still render")
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(Busy, 10)
	b.Add(Data, 5)
	if b.Total() != 15 {
		t.Fatalf("total = %d", b.Total())
	}
	var c Breakdown
	c.Add(Busy, 1)
	c.AddAll(&b)
	if c[Busy] != 11 || c.Total() != 16 {
		t.Fatalf("AddAll wrong: %+v", c)
	}
}

func TestRunAggregation(t *testing.T) {
	r := NewRun("app", "proto", 4)
	for i := range r.Procs {
		r.Procs[i].LockAcquires = uint64(i)
		r.Procs[i].BarrierArrivals = 3
		r.Procs[i].FaultCycles = 100
	}
	if r.LockAcquires() != 0+1+2+3 {
		t.Fatal("lock acquires")
	}
	if r.BarrierEvents() != 3 {
		t.Fatal("barrier events")
	}
	if r.FaultCycles() != 400 {
		t.Fatal("fault cycles")
	}
	// A run with no processors has had no barrier, not a division by zero.
	if n := NewRun("app", "proto", 0).BarrierEvents(); n != 0 {
		t.Fatalf("barrier events of a run without processors = %d, want 0", n)
	}
}

func TestDiffStats(t *testing.T) {
	r := NewRun("a", "p", 2)
	r.Procs[0].DiffsCreated = 10
	r.Procs[0].DiffBytesCreated = 1000
	r.Procs[0].DiffsMerged = 5
	r.Procs[0].MergedBytes = 250
	r.Procs[0].DiffCreateCycles = 2000
	r.Procs[0].DiffCreateHidden = 500
	d := r.Diffs()
	if d.AvgDiffBytes != 100 {
		t.Fatalf("avg diff = %v", d.AvgDiffBytes)
	}
	if d.AvgMergedBytes != 50 {
		t.Fatalf("avg merged = %v", d.AvgMergedBytes)
	}
	if d.MergedPct != 50 {
		t.Fatalf("merged pct = %v", d.MergedPct)
	}
	if d.HiddenPct != 25 {
		t.Fatalf("hidden pct = %v", d.HiddenPct)
	}
}

func TestDiffStatsEmpty(t *testing.T) {
	r := NewRun("a", "p", 1)
	d := r.Diffs()
	if d.AvgDiffBytes != 0 || d.HiddenPct != 0 {
		t.Fatal("empty run should produce zeroes, not NaNs")
	}
}
