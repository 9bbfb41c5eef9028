package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"aecdsm/internal/aec"
	"aecdsm/internal/apps"
	"aecdsm/internal/memsys"
	"aecdsm/internal/munin"
	"aecdsm/internal/proto"
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

// TestTraceDoesNotPerturbCycles checks the zero-cost guarantee from the
// other side: attaching a tracer must not change the measured simulation
// (tracing never charges simulated time).
func TestTraceDoesNotPerturbCycles(t *testing.T) {
	params := memsys.Default()
	for _, mk := range []func() proto.Protocol{
		func() proto.Protocol { return aec.New(aec.DefaultOptions()) },
		func() proto.Protocol { return tm.New() },
		func() proto.Protocol { return munin.New(munin.Options{UseLAP: true, Ns: 2}) },
	} {
		plain := Run(params, mk(), apps.NewCounter(4, 64, 8))
		traced := RunFaultTraced(params, mk(), apps.NewCounter(4, 64, 8), trace.NewRing(1024), nil)
		if plain.Cycles() != traced.Cycles() {
			t.Errorf("%s: tracing changed the run: %d vs %d cycles",
				plain.Run.Protocol, plain.Cycles(), traced.Cycles())
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
