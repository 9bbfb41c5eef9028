package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"aecdsm/internal/apps"
)

// TestTimelineWarmMatchesCold is the warm-start validity contract: every
// snapshot the sweep takes from its one paused engine per protocol must
// equal the snapshot of a fresh engine replayed from cycle zero to the
// same horizon (to completion for the last one). Any divergence means
// pausing perturbed the event sequence — a determinism bug in
// StartUntil/ContinueUntil.
func TestTimelineWarmMatchesCold(t *testing.T) {
	e := NewExperiments(0.1)
	for _, kind := range timelineKinds() {
		total, warm := e.timelineSnapshots("Raytrace", kind)
		for i, snap := range warm {
			prog := appsFactory("Raytrace")(apps.Config{Scale: e.Scale, BaseSeed: e.BaseSeed})
			cold := NewSession(e.Params, NewProtocol(kind, 2), prog)
			if i+1 < timelineSteps {
				cold.RunUntil(total * uint64(i+1) / timelineSteps)
			} else {
				cold.Finish()
			}
			if !reflect.DeepEqual(cold.Snapshot(), snap) {
				t.Errorf("%s: warm snapshot %d/%d diverged from a cold replay to the same horizon",
					kind, i+1, timelineSteps)
			}
			cold.Close()
		}
	}
}

// TestGoldenTimeline diffs the short-mode timeline against the
// checked-in snapshot, pinning the warm-start sampling path the same way
// TestGoldenKeyStats pins the main tables. Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenTimeline -update-golden
func TestGoldenTimeline(t *testing.T) {
	var buf bytes.Buffer
	NewExperiments(goldenScale).TimelineSweep(&buf, "Raytrace")

	checkGolden(t, "golden_timeline.txt", buf.Bytes())
}

// TestSessionMatchesRun checks that a session driven to completion in
// horizon slices produces exactly the statistics of an uninterrupted
// run.
func TestSessionMatchesRun(t *testing.T) {
	e := NewExperiments(0.05)
	full := e.Run("IS", ProtoAEC)
	total := full.Cycles()

	prog := appsFactory("IS")(apps.Config{Scale: e.Scale, BaseSeed: e.BaseSeed})
	sess := NewSession(e.Params, NewProtocol(ProtoAEC, 2), prog)
	for i := uint64(1); i <= 4; i++ {
		sess.RunUntil(total * i / 4)
	}
	r := sess.Finish()
	if r.Cycles() != total {
		t.Errorf("sliced run finished at %d cycles, uninterrupted run at %d", r.Cycles(), total)
	}
	if !reflect.DeepEqual(full.Run.Procs, r.Run.Procs) {
		t.Error("sliced run per-processor statistics differ from uninterrupted run")
	}
}

// TestSessionCloseReleasesCoroutines: a session dropped part-way holds
// one parked coroutine per simulated processor until it is closed;
// Close releases them all, twice is a no-op, and a closed session
// refuses to run on.
func TestSessionCloseReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewExperiments(0.05)
	for i := 0; i < 5; i++ {
		prog := appsFactory("IS")(apps.Config{Scale: e.Scale, BaseSeed: e.BaseSeed})
		sess := NewSession(e.Params, NewProtocol(ProtoAEC, 2), prog)
		if !sess.RunUntil(100000) {
			t.Fatal("IS should still be running at cycle 100000")
		}
		if n := runtime.NumGoroutine(); n < before+e.Params.NumProcs {
			t.Fatalf("paused session holds %d goroutines over %d, want one per processor", n-before, before)
		}
		sess.Close()
		sess.Close()
		if sess.RunUntil(200000) {
			t.Error("closed session ran on")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after closing every session, started with %d", after, before)
	}
}
