package check

import (
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// TestAuditorCleanOnApps attaches the invariant auditor to the existing
// hand-written programs under every protocol and requires zero findings:
// the auditor must never cry wolf on correct executions, or fuzz failures
// stop meaning anything.
func TestAuditorCleanOnApps(t *testing.T) {
	programs := map[string]func() proto.Program{
		"counter": func() proto.Program { return apps.NewCounter(4, 64, 8) },
		"rmw":     func() proto.Program { return apps.NewMicroRMW(8, 6) },
		"stencil": func() proto.Program { return apps.NewMicroStencil(4, false) },
		"synth": func() proto.Program {
			return apps.NewSynth(apps.SynthConfig{Seed: 9, Locks: 3, CellsPerLock: 4, Phases: 2, OpsPerPhase: 5, Notices: true})
		},
	}
	kinds := harness.Kinds()
	if testing.Short() {
		kinds = DefaultProtocols()
	}
	for name, factory := range programs {
		for _, kind := range kinds {
			aud := NewAuditor(memsys.Default().NumProcs)
			res := harness.RunFaultTraced(memsys.Default(), harness.NewProtocol(kind, 2), factory(), aud, nil)
			if res.Deadlocked {
				t.Errorf("%s under %s: deadlocked", name, kind)
			}
			if res.VerifyErr != nil {
				t.Errorf("%s under %s: %v", name, kind, res.VerifyErr)
			}
			for _, v := range aud.Violations() {
				t.Errorf("%s under %s: spurious violation: %s", name, kind, v)
			}
		}
	}
}

// TestAuditorFlagsBadStreams feeds the auditor hand-built illegal event
// streams and checks each invariant actually fires.
func TestAuditorFlagsBadStreams(t *testing.T) {
	t.Run("double-grant", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(grantEv(0, 1))
		a.Trace(grantEv(0, 2))
		if len(a.Violations()) == 0 {
			t.Fatal("grant while held not flagged")
		}
	})
	t.Run("foreign-release", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(grantEv(0, 1))
		a.Trace(releaseEv(0, 3))
		if len(a.Violations()) == 0 {
			t.Fatal("release by non-holder not flagged")
		}
	})
	t.Run("fifo", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(enqueueEv(0, 1))
		a.Trace(enqueueEv(0, 2))
		a.Trace(grantEv(0, 2)) // queued behind proc 1
		if len(a.Violations()) == 0 {
			t.Fatal("out-of-order grant to queued proc not flagged")
		}
	})
	t.Run("diff-sans-twin", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(diffCreateEv(1, 0, 5))
		if len(a.Violations()) == 0 {
			t.Fatal("diff without twin not flagged")
		}
	})
	t.Run("double-apply", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(diffApplyEv(2, 0, 9))
		a.Trace(diffApplyEv(2, 0, 9))
		if len(a.Violations()) == 0 {
			t.Fatal("double apply in one episode not flagged")
		}
	})
	t.Run("ids-outside-the-machine", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(diffApplyEv(4, 0, 9))
		a.Trace(diffCreateEv(-1, 0, 9))
		a.Trace(twinCreateEv(0, -1))
		if n := len(a.Violations()); n != 3 {
			t.Fatalf("%d violations for page events at procs 4 and -1 of four and at page -1, want 3: %v", n, a.Violations())
		}
	})
	t.Run("apply-episodes-reset", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(diffApplyEv(2, 0, 9))
		a.Trace(msgDeliverEv(2))
		a.Trace(diffApplyEv(2, 0, 9)) // new episode: legal re-push
		if n := len(a.Violations()); n != 0 {
			t.Fatalf("re-apply across episodes flagged: %v", a.Violations())
		}
	})
	t.Run("release-of-freed-lock", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(grantEv(0, 1))
		a.Trace(releaseEv(0, 1))
		a.Trace(releaseEv(0, 1)) // the first release already freed it
		if len(a.Violations()) == 0 {
			t.Fatal("release of a freed lock not flagged")
		}
	})
	t.Run("release-of-unseen-lock", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(releaseEv(0, 1)) // the stream may start mid-tenure
		if vs := a.Violations(); len(vs) != 0 {
			t.Fatalf("release of a lock no event named before flagged: %v", vs)
		}
	})
	t.Run("predict-own-holder", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(predictEv(0, 2, "[1 2]"))
		if len(a.Violations()) == 0 {
			t.Fatal("update set naming its own holder not flagged")
		}
	})
	t.Run("predict-unknown-proc", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(predictEv(0, 1, "[4]"))
		if len(a.Violations()) == 0 {
			t.Fatal("update set naming proc >= nprocs not flagged")
		}
	})
	t.Run("hit-outside-prediction", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(predictEv(0, 1, "[2]"))
		a.Trace(verdictEv(trace.KindLAPHit, 0, 3, 1))
		if len(a.Violations()) == 0 {
			t.Fatal("lap-hit outside the recorded prediction not flagged")
		}
	})
	t.Run("miss-inside-prediction", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(predictEv(0, 1, "[3 2]"))
		a.Trace(verdictEv(trace.KindLAPMiss, 0, 2, 1))
		if len(a.Violations()) == 0 {
			t.Fatal("lap-miss inside the recorded prediction not flagged")
		}
	})
	t.Run("malformed-predict-note", func(t *testing.T) {
		// The real set is [2 3]; a corrupted note must not read as [2],
		// which would let the lap-miss for proc 3 pass.
		a := NewAuditor(4)
		a.Trace(predictEv(0, 1, "[2 3x]"))
		a.Trace(verdictEv(trace.KindLAPMiss, 0, 3, 1))
		if len(a.Violations()) == 0 {
			t.Fatal("unparseable lap-predict note not flagged")
		}
	})
	t.Run("empty-predict-note", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(predictEv(0, 1, "[]"))
		a.Trace(verdictEv(trace.KindLAPMiss, 0, 3, 1))
		if vs := a.Violations(); len(vs) != 0 {
			t.Fatalf("empty update set and a miss flagged: %v", vs)
		}
	})
	t.Run("saved-twin-survives", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(twinCreateEv(1, 5))
		saved := diffCreateEv(1, 5, 1)
		saved.Arg2 = 2 // saved-twin creation: the twin stays outstanding
		a.Trace(saved)
		a.Trace(diffCreateEv(1, 5, 2)) // the canonical diff consumes it
		if vs := a.Violations(); len(vs) != 0 {
			t.Fatalf("canonical diff after a saved-twin diff flagged: %v", vs)
		}
		a.Trace(diffCreateEv(1, 5, 3))
		if len(a.Violations()) == 0 {
			t.Fatal("diff after the canonical diff consumed the twin not flagged")
		}
	})
	t.Run("double-apply-deep-in-episode", func(t *testing.T) {
		a := NewAuditor(4)
		for ref := uint64(1); ref <= 300; ref++ {
			a.Trace(diffApplyEv(2, int(ref%7), ref))
		}
		if vs := a.Violations(); len(vs) != 0 {
			t.Fatalf("300 distinct applies flagged: %v", vs)
		}
		a.Trace(diffApplyEv(2, 1, 1)) // the episode's first ref, 300 applies later
		if len(a.Violations()) == 0 {
			t.Fatal("double apply 300 applies deep into an episode not flagged")
		}
	})
	t.Run("negative-ids", func(t *testing.T) {
		for _, ev := range []trace.Event{grantEv(-1, 1), twinCreateEv(1, -1), diffApplyEv(-1, 0, 9)} {
			a := NewAuditor(4)
			a.Trace(ev)
			if len(a.Violations()) == 0 {
				t.Errorf("%s naming proc %d, lock %d, page %d not flagged", ev.Kind, ev.Proc, ev.Lock, ev.Page)
			}
		}
	})
	t.Run("early-barrier-depart", func(t *testing.T) {
		a := NewAuditor(2)
		a.Trace(barArriveEv(0))
		a.Trace(barDepartEv(0)) // proc 1 never arrived
		if len(a.Violations()) == 0 {
			t.Fatal("early barrier departure not flagged")
		}
	})
}

func grantEv(lock, proc int) trace.Event {
	ev := trace.Ev(0, proc, trace.KindLockGrant)
	ev.Lock = lock
	return ev
}

func releaseEv(lock, proc int) trace.Event {
	ev := trace.Ev(0, proc, trace.KindLockRelease)
	ev.Lock = lock
	return ev
}

func enqueueEv(lock, proc int) trace.Event {
	ev := trace.Ev(0, 0, trace.KindLockEnqueue)
	ev.Lock = lock
	ev.Arg = int64(proc)
	return ev
}

func twinCreateEv(proc, page int) trace.Event {
	ev := trace.Ev(0, proc, trace.KindTwinCreate)
	ev.Page = page
	return ev
}

func diffCreateEv(proc, page int, ref uint64) trace.Event {
	ev := trace.Ev(0, proc, trace.KindDiffCreate)
	ev.Page = page
	ev.Ref = ref
	return ev
}

func diffApplyEv(proc, page int, ref uint64) trace.Event {
	ev := trace.Ev(0, proc, trace.KindDiffApply)
	ev.Page = page
	ev.Ref = ref
	return ev
}

func predictEv(lock, holder int, note string) trace.Event {
	ev := trace.Ev(0, 0, trace.KindLAPPredict)
	ev.Lock = lock
	ev.Arg = int64(holder)
	ev.Note = note
	return ev
}

// verdictEv is a lap-hit or lap-miss: the lock passed from prev to to.
func verdictEv(kind trace.Kind, lock, to, prev int) trace.Event {
	ev := trace.Ev(0, 0, kind)
	ev.Lock = lock
	ev.Arg = int64(to)
	ev.Arg2 = int64(prev)
	return ev
}

func msgDeliverEv(proc int) trace.Event {
	return trace.Ev(0, proc, trace.KindMsgDeliver)
}

func barArriveEv(proc int) trace.Event {
	return trace.Ev(0, proc, trace.KindBarrierArrive)
}

func barDepartEv(proc int) trace.Event {
	return trace.Ev(0, proc, trace.KindBarrierDepart)
}

// TestTraceEventsMatchCounters pins that the auditor sees every base-page
// fetch and every diff application the statistics count: under each
// protocol kind, page-fetch events equal the PageFetches counters and
// diff-apply events equal DiffsApplied, both read off one traced run.
func TestTraceEventsMatchCounters(t *testing.T) {
	for _, kind := range harness.Kinds() {
		var fetches, applies uint64
		for seed := uint64(1); seed <= 4; seed++ {
			w := Generate(seed, 8)
			m := trace.NewMetrics()
			res := harness.RunFaultTraced(w.Params(), harness.NewProtocol(kind, 2), apps.NewSynth(w.Cfg), m, nil)
			wantFetches := res.Run.Sum(func(p *stats.Proc) uint64 { return p.PageFetches })
			wantApplies := res.Run.Sum(func(p *stats.Proc) uint64 { return p.DiffsApplied })
			var gotFetches, gotApplies uint64
			for _, pg := range m.Summary().Pages {
				gotFetches += pg.Fetches
				gotApplies += pg.DiffsUsed
			}
			if gotFetches != wantFetches {
				t.Errorf("%s seed %d: %d page-fetch events, PageFetches = %d", kind, seed, gotFetches, wantFetches)
			}
			if gotApplies != wantApplies {
				t.Errorf("%s seed %d: %d diff-apply events, DiffsApplied = %d", kind, seed, gotApplies, wantApplies)
			}
			fetches += wantFetches
			applies += wantApplies
		}
		if kind != harness.ProtoIdeal && (fetches == 0 || applies == 0) {
			t.Errorf("%s: workloads fetched %d pages and applied %d diffs; the comparison is vacuous", kind, fetches, applies)
		}
	}
}

// recording is a trace sink that keeps every event, for replay.
type recording []trace.Event

func (r *recording) Trace(ev trace.Event) { *r = append(*r, ev) }

// TestAuditorDoesNotAllocate is the auditor's zero-allocation contract:
// once its per-lock and per-processor tables have grown to a run's shape,
// auditing that run's events again allocates nothing. The stream is
// recorded once from a real audited synth run under each protocol that
// emits one, then replayed into one auditor: the first replay sizes the
// tables, the measured ones must report 0 allocations and no violation.
func TestAuditorDoesNotAllocate(t *testing.T) {
	w := Generate(3, 8)
	for _, kind := range []harness.ProtocolKind{harness.ProtoAEC, harness.ProtoTM, harness.ProtoMunin} {
		t.Run(string(kind), func(t *testing.T) {
			var rec recording
			res := harness.RunFaultTraced(w.Params(), harness.NewProtocol(kind, 2), apps.NewSynth(w.Cfg), &rec, nil)
			if res.Deadlocked || res.VerifyErr != nil {
				t.Fatalf("recording run: deadlocked %v, verify %v", res.Deadlocked, res.VerifyErr)
			}
			seen := map[trace.Kind]int{}
			for _, ev := range rec {
				seen[ev.Kind]++
			}
			for _, k := range []trace.Kind{
				trace.KindLockEnqueue, trace.KindLockGrant, trace.KindLockRelease, trace.KindLAPPredict,
				trace.KindTwinCreate, trace.KindDiffCreate, trace.KindDiffApply, trace.KindBarrierDepart,
			} {
				if seen[k] == 0 {
					t.Fatalf("recorded %d events, none %s: the replay is vacuous", len(rec), k)
				}
			}
			a := NewAuditor(w.Procs)
			replay := func() {
				for _, ev := range rec {
					a.Trace(ev)
				}
			}
			replay()
			if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
				t.Errorf("auditing %d events allocates %.0f times per replay, want 0", len(rec), allocs)
			}
			if vs := a.Violations(); len(vs) != 0 {
				t.Errorf("replays flagged: %v", vs)
			}
		})
	}
}
