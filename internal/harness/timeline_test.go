package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
)

// TestTimelineSnapshotsMatchOneMarkRuns: each of the five snapshots the
// sweep takes from one observed run per protocol equals the snapshot of a
// run observed at that mark alone, and the sixth is the statistics of an
// unobserved run. Any divergence means observing perturbed the event
// sequence.
func TestTimelineSnapshotsMatchOneMarkRuns(t *testing.T) {
	e := NewExperiments(0.1)
	for _, kind := range timelineKinds() {
		total, snaps := e.timelineSnapshots("Raytrace", kind)
		if len(snaps) != timelineSteps {
			t.Fatalf("%s: %d snapshots, want %d", kind, len(snaps), timelineSteps)
		}
		spec := e.spec("Raytrace", kind, 2)
		for i, snap := range snaps[:timelineSteps-1] {
			mark := sim.Time(total * uint64(i+1) / timelineSteps)
			if _, one := run(spec.params, NewProtocol(kind, 2), e.program(spec), nil, nil, []sim.Time{mark}); !reflect.DeepEqual(one[0], snap) {
				t.Errorf("%s: snapshot %d/%d differs from a run observed at that mark alone", kind, i+1, timelineSteps)
			}
		}
		plain := RunFaultTraced(spec.params, NewProtocol(kind, 2), e.program(spec), nil, nil).Must()
		if !reflect.DeepEqual(plain.Run, snaps[timelineSteps-1]) {
			t.Errorf("%s: the last snapshot differs from an unobserved run", kind)
		}
	}
}

// TestObservedRunMatchesUnobserved: a run observed at sixths of its
// runtime ends in exactly the statistics of an unobserved run, under every
// protocol kind, clean and under the light fault preset.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	light, err := fault.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.Config{Scale: 0.05}
	for _, kind := range Kinds() {
		for _, fcfg := range []*fault.Config{nil, &light} {
			plain := RunFaultTraced(memsys.Default(), NewProtocol(kind, 2), appsFactory("IS")(cfg), nil, fcfg).Must()
			var marks []sim.Time
			for i := uint64(1); i < timelineSteps; i++ {
				marks = append(marks, plain.Cycles()*i/timelineSteps)
			}
			observed, samples := run(memsys.Default(), NewProtocol(kind, 2), appsFactory("IS")(cfg), nil, fcfg, marks)
			observed.Must()
			if len(samples) != len(marks) {
				t.Errorf("%s, faults %v: %d samples for %d marks", kind, fcfg, len(samples), len(marks))
			}
			if !reflect.DeepEqual(plain.Run, observed.Run) {
				t.Errorf("%s, faults %v: observed run ended at %d cycles, unobserved at %d",
					kind, fcfg, observed.Cycles(), plain.Cycles())
			}
		}
	}
}

// TestRunReleasesCoroutines: a run holds one coroutine per processor only
// while it runs. Observed or not, finished or ended by a body's panic with
// the other processors parked, it leaves no goroutine behind.
func TestRunReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewExperiments(0.05)
	is := func() proto.Program { return appsFactory("IS")(apps.Config{Scale: e.Scale}) }
	for i := 0; i < 3; i++ {
		for _, marks := range [][]sim.Time{nil, {100000}} {
			res, _ := run(e.Params, NewProtocol(ProtoAEC, 2), is(), nil, nil, marks)
			res.Must()
		}
		if msg := panicMessage(func() {
			RunFaultTraced(e.Params, NewProtocol(ProtoAEC, 2), &brokenProgram{Program: is(), panics: true}, nil, nil)
		}); msg == "" {
			t.Fatal("the panicking body's run returned")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after every run, started with %d", after, before)
	}
}

// TestGoldenTimeline diffs the short-mode timeline against the
// checked-in snapshot, pinning the observed sampling path the same way
// TestGoldenKeyStats pins the main tables. Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenTimeline -update-golden
func TestGoldenTimeline(t *testing.T) {
	var buf bytes.Buffer
	NewExperiments(goldenScale).TimelineSweep(&buf, "Raytrace")

	checkGolden(t, "golden_timeline.txt", buf.Bytes())
}
