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
	t.Run("apply-episodes-reset", func(t *testing.T) {
		a := NewAuditor(4)
		a.Trace(diffApplyEv(2, 0, 9))
		a.Trace(msgDeliverEv(2))
		a.Trace(diffApplyEv(2, 0, 9)) // new episode: legal re-push
		if n := len(a.Violations()); n != 0 {
			t.Fatalf("re-apply across episodes flagged: %v", a.Violations())
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
