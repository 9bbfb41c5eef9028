package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/fault"
	"aecdsm/internal/memsys"
	"aecdsm/internal/munin"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/tm"
	"aecdsm/internal/trace"
)

// tracedProtocols builds a fresh instance of every protocol family that
// emits trace events.
func tracedProtocols() []proto.Protocol {
	return []proto.Protocol{
		aec.New(aec.DefaultOptions()),
		tm.New(),
		tm.NewLazyHybrid(),
		munin.New(munin.Options{UseLAP: true, Ns: 2}),
	}
}

// TestTraceDeterministic checks the tentpole guarantee: two identical-
// config runs produce byte-identical JSONL traces.
func TestTraceDeterministic(t *testing.T) {
	params := memsys.Default()
	for _, mk := range []func() proto.Protocol{
		func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
		func() proto.Protocol { return tm.New() },
	} {
		emit := func() []byte {
			var buf bytes.Buffer
			j := trace.NewJSONL(&buf)
			res := RunFaultTraced(params, mk(), apps.NewCounter(4, 64, 8), j, nil)
			if res.Deadlocked || res.VerifyErr != nil {
				t.Fatalf("run failed: deadlock=%v err=%v", res.Deadlocked, res.VerifyErr)
			}
			j.Close()
			return buf.Bytes()
		}
		a, b := emit(), emit()
		if !bytes.Equal(a, b) {
			t.Errorf("traces of identical runs differ (%d vs %d bytes)", len(a), len(b))
		}
	}
}

// sinkFunc adapts a function to trace.Tracer, for a test that folds the
// stream instead of keeping it.
type sinkFunc func(trace.Event)

func (f sinkFunc) Trace(ev trace.Event) { f(ev) }

// TestTraceDoesNotPerturbCycles checks the zero-cost guarantee from the
// other side: attaching a tracer must not change the measured simulation
// (tracing never charges simulated time). Since trace.Emitter replaced the
// hand-written guards this is the one check of that rule, so it compares
// every counter of every processor, for every protocol kind, fault-free,
// under the light fault preset and under light plus a manager crash, with
// an order-preserving and a reordering grant policy — and demands that
// the grid reaches every kind of event an emitting layer can produce.
// Its sink also checks, on what runs, the one rule no signature can carry
// for a diff built elsewhere: a diff-lifecycle event whose diff has bytes
// names that diff.
func TestTraceDoesNotPerturbCycles(t *testing.T) {
	cfg := apps.SynthConfig{Seed: 11, Locks: 3, CellsPerLock: 4, Phases: 3, OpsPerPhase: 5, PadWords: 24, Notices: true}
	light := fault.Presets["light"]
	schedules := []*fault.Config{nil}
	for _, spec := range []string{light, light + ",crash=0@1600000:200000"} {
		fc, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 5
		schedules = append(schedules, &fc)
	}
	counts := map[trace.Kind]int{}
	sink := sinkFunc(func(ev trace.Event) {
		counts[ev.Kind]++
		switch ev.Kind {
		case trace.KindDiffCreate, trace.KindDiffApply, trace.KindDiffMerge:
			if ev.Arg != 0 && ev.Ref == 0 {
				t.Errorf("%v of %d bytes carries no diff identity: %+v", ev.Kind, ev.Arg, ev)
			}
		}
	})
	for _, kind := range Kinds() {
		for _, fc := range schedules {
			for _, policy := range []string{"fifo", "lease"} {
				params := memsys.Default().ForProcs(8)
				params.LockPolicy = policy
				plain := RunFaultTraced(params, NewProtocol(kind, 2), apps.NewSynth(cfg), nil, fc).Must()
				traced := RunFaultTraced(params, NewProtocol(kind, 2), apps.NewSynth(cfg), sink, fc).Must()
				if reflect.DeepEqual(plain.Run, traced.Run) {
					continue
				}
				t.Errorf("%s, faults %v, policy %s: tracing changed the run: %d vs %d cycles",
					kind, fc, policy, plain.Cycles(), traced.Cycles())
				for i := range plain.Run.Procs {
					if a, b := plain.Run.Procs[i], traced.Run.Procs[i]; a != b {
						t.Logf("first at processor %d:\nuntraced %+v\ntraced   %+v", i, a, b)
						break
					}
				}
			}
		}
	}
	for k := trace.KindLockRequest; k.String() != "unknown"; k++ {
		if counts[k] == 0 {
			t.Errorf("no %v event in the whole grid: its emission site is not covered", k)
		}
	}
}

// TestTraceEventStream sanity-checks the stream every protocol emits:
// framed by run-start/run-end, containing the lock and diff activity the
// Counter app is guaranteed to generate.
func TestTraceEventStream(t *testing.T) {
	params := memsys.Default()
	for _, pr := range tracedProtocols() {
		pr := pr
		t.Run(pr.Name(), func(t *testing.T) {
			ring := trace.NewRing(1 << 20)
			res := RunFaultTraced(params, pr, apps.NewCounter(4, 64, 8), ring, nil)
			if res.Deadlocked || res.VerifyErr != nil {
				t.Fatalf("run failed: deadlock=%v err=%v", res.Deadlocked, res.VerifyErr)
			}
			evs := ring.Events()
			if len(evs) < 10 {
				t.Fatalf("only %d events traced", len(evs))
			}
			if evs[0].Kind != trace.KindRunStart {
				t.Errorf("first event = %v, want run-start", evs[0].Kind)
			}
			last := evs[len(evs)-1]
			if last.Kind != trace.KindRunEnd {
				t.Errorf("last event = %v, want run-end", last.Kind)
			}
			if last.Cycle != res.Cycles() {
				t.Errorf("run-end at cycle %d, run measured %d", last.Cycle, res.Cycles())
			}
			counts := map[trace.Kind]int{}
			for _, ev := range evs {
				counts[ev.Kind]++
				if ev.Cycle > res.Cycles() {
					t.Fatalf("event %+v beyond the run's end (%d cycles)", ev, res.Cycles())
				}
			}
			for _, want := range []trace.Kind{
				trace.KindLockRequest, trace.KindLockGrant, trace.KindLockRelease,
				trace.KindTwinCreate, trace.KindMsgSend,
			} {
				if counts[want] == 0 {
					t.Errorf("no %v events traced", want)
				}
			}
			if counts[trace.KindLockGrant] < counts[trace.KindLockRelease] {
				t.Errorf("grants (%d) < releases (%d)",
					counts[trace.KindLockGrant], counts[trace.KindLockRelease])
			}
		})
	}
}

// TestTraceMetricsEndToEnd folds a real run into the metrics sink and
// checks the summary reflects the run's lock activity.
func TestTraceMetricsEndToEnd(t *testing.T) {
	params := memsys.Default()
	m := trace.NewMetrics()
	res := RunFaultTraced(params, aec.New(aec.DefaultOptions()), apps.NewCounter(4, 64, 8), m, nil)
	if res.Deadlocked || res.VerifyErr != nil {
		t.Fatalf("run failed: deadlock=%v err=%v", res.Deadlocked, res.VerifyErr)
	}
	s := m.Summary()
	if s.Events == 0 || s.Messages == 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if len(s.Locks) == 0 {
		t.Fatal("no lock activity recorded")
	}
	l := s.Locks[0]
	// Counter(4 procs, 64 increments): every increment acquires lock 0.
	if l.Acquires == 0 || l.HoldCy.Count == 0 {
		t.Fatalf("lock summary = %+v", l)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("summary JSON invalid")
	}
}

// TestTraceMetricsMuninPushes: Munin's update-push names the page whose
// diff it carries, not a lock, so the metrics count it on that page — the
// summary used to open with a lock -1 holding every push of the run. The
// pages account for every update-push event and byte of the stream; that
// is fewer than stats.UpdatesPushed, which also counts the home's forwards
// to the copyset, and those emit no event (ROADMAP item 1, finding (c)).
func TestTraceMetricsMuninPushes(t *testing.T) {
	for _, kind := range []ProtocolKind{ProtoMunin, ProtoMuninLAP} {
		m := trace.NewMetrics()
		var want, wantBytes uint64
		stream := sinkFunc(func(ev trace.Event) {
			if ev.Kind == trace.KindUpdatePush {
				want++
				wantBytes += uint64(ev.Arg2)
			}
		})
		res := RunFaultTraced(memsys.Default(), NewProtocol(kind, 2), apps.NewCounter(4, 64, 8), trace.Multi(m, stream), nil).Must()
		s := m.Summary()
		for _, l := range s.Locks {
			if l.Lock < 0 {
				t.Errorf("%s: summary of a lock that does not exist: %+v", kind, l)
			}
		}
		var pushes, pushBytes uint64
		for _, p := range s.Pages {
			if p.Page < 0 {
				t.Errorf("%s: summary of a page that does not exist: %+v", kind, p)
			}
			pushes += p.Pushes
			pushBytes += p.PushBytes
		}
		if want == 0 || pushes != want || pushBytes != wantBytes {
			t.Errorf("%s: pages count %d pushes of %d bytes, the stream has %d of %d",
				kind, pushes, pushBytes, want, wantBytes)
		}
		if counted := res.Run.Sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed }); pushes > counted {
			t.Errorf("%s: pages count %d pushes, the run only made %d", kind, pushes, counted)
		}
	}
}

// TestChromeTraceEndToEnd renders a real run through the Chrome exporter
// and checks the document parses and holds per-processor tracks.
func TestChromeTraceEndToEnd(t *testing.T) {
	params := memsys.Default()
	var buf bytes.Buffer
	c := trace.NewChrome(&buf)
	res := RunFaultTraced(params, aec.New(aec.DefaultOptions()), apps.NewCounter(4, 64, 8), c, nil)
	if res.Deadlocked || res.VerifyErr != nil {
		t.Fatalf("run failed: deadlock=%v err=%v", res.Deadlocked, res.VerifyErr)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		tids[ev.Tid] = true
		if ev.Ph == "X" {
			spans++
		}
	}
	if len(tids) < params.NumProcs {
		t.Errorf("only %d processor tracks, want %d", len(tids), params.NumProcs)
	}
	if spans == 0 {
		t.Error("no lock-hold/barrier spans in the trace")
	}
}
