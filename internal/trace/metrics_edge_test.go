package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"aecdsm/internal/apps"
	"aecdsm/internal/harness"
	"aecdsm/internal/memsys"
	"aecdsm/internal/trace"
)

// TestMetricsZeroEvents pins the empty-run shape: the ideal protocol (and
// any untraced run) produces a summary with zero counts, no lock or page
// records, and valid JSON.
func TestMetricsZeroEvents(t *testing.T) {
	m := trace.NewMetrics()
	s := m.Summary()
	if s.Events != 0 || s.Messages != 0 || s.MsgBytes != 0 || s.NetWaitCy != 0 {
		t.Errorf("empty metrics has nonzero totals: %+v", s)
	}
	if len(s.Locks) != 0 || len(s.Pages) != 0 || s.ActivePages != 0 {
		t.Errorf("empty metrics has lock/page records: %+v", s)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back trace.Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("empty summary is not valid JSON: %v", err)
	}
}

// TestMetricsIdealRunIsEmpty checks the ideal protocol emits no protocol
// events: a metrics sink attached to an ideal run sees only the harness
// run markers — no locks, no diffs, no twins, no messages.
func TestMetricsIdealRunIsEmpty(t *testing.T) {
	m := trace.NewMetrics()
	harness.RunFaultTraced(memsys.Default(), harness.NewProtocol(harness.ProtoIdeal, 2),
		apps.NewCounter(2, 16, 4), m, nil).Must()
	s := m.Summary()
	if len(s.Locks) != 0 {
		t.Errorf("ideal protocol produced lock records: %+v", s.Locks)
	}
	if s.Messages != 0 || s.MsgBytes != 0 {
		t.Errorf("ideal protocol sent messages: %d (%d bytes)", s.Messages, s.MsgBytes)
	}
	for _, pg := range s.Pages {
		if pg.Twins != 0 || pg.DiffsMade != 0 || pg.DiffsUsed != 0 {
			t.Errorf("ideal protocol did diff work on page %d: %+v", pg.Page, pg)
		}
	}
}

// TestMetricsUncontendedLock checks a lock that is granted without a
// preceding request (never contended, or the request predates the sink)
// still counts the acquire but records no wait observation.
func TestMetricsUncontendedLock(t *testing.T) {
	m := trace.NewMetrics()
	grant := trace.Ev(100, 3, trace.KindLockGrant)
	grant.Lock = 7
	m.Trace(grant)
	rel := trace.Ev(250, 3, trace.KindLockRelease)
	rel.Lock = 7
	m.Trace(rel)

	s := m.Summary()
	if len(s.Locks) != 1 {
		t.Fatalf("want 1 lock record, got %d", len(s.Locks))
	}
	l := s.Locks[0]
	if l.Acquires != 1 {
		t.Errorf("acquires = %d, want 1", l.Acquires)
	}
	if l.WaitCy.Count != 0 {
		t.Errorf("uncontended lock observed wait time: %+v", l.WaitCy)
	}
	if l.HoldCy.Count != 1 || l.HoldCy.Sum != 150 {
		t.Errorf("hold histogram = %+v, want one 150-cycle observation", l.HoldCy)
	}
	if l.Accuracy != -1 {
		t.Errorf("never-evaluated lock accuracy = %v, want -1 sentinel", l.Accuracy)
	}
}

// TestMetricsReleaseWithoutGrant checks an unmatched release (grant seen
// before the sink attached) is ignored rather than producing a bogus or
// underflowing hold time.
func TestMetricsReleaseWithoutGrant(t *testing.T) {
	m := trace.NewMetrics()
	rel := trace.Ev(500, 1, trace.KindLockRelease)
	rel.Lock = 2
	m.Trace(rel)
	for _, l := range m.Summary().Locks {
		if l.HoldCy.Count != 0 {
			t.Errorf("unmatched release produced a hold observation: %+v", l)
		}
	}
}

// TestMetricsUnnamedLockOrPage: an event of a lock or page kind that names
// none (the id Ev leaves at -1) is counted in the run totals and produces no
// lock or page record — the summary never lists an id that does not exist.
func TestMetricsUnnamedLockOrPage(t *testing.T) {
	m := trace.NewMetrics()
	for _, k := range []trace.Kind{
		trace.KindLockRequest, trace.KindLockEnqueue, trace.KindLockGrant, trace.KindLockRelease,
		trace.KindLAPNotice, trace.KindLAPHit, trace.KindLAPPush, trace.KindUpdatePush,
		trace.KindPageFault, trace.KindTwinCreate, trace.KindDiffCreate, trace.KindDiffApply,
	} {
		m.Trace(trace.Ev(100, 1, k))
	}
	if s := m.Summary(); s.Events != 12 || len(s.Locks) != 0 || len(s.Pages) != 0 {
		t.Errorf("summary = %+v, want 12 events and no lock or page records", s)
	}
}

// TestHistogramEmptyAndBuckets pins Histogram edge behaviour: Mean of an
// empty histogram is 0 (not NaN), and bucket boundaries put 0 and 1 in
// bucket 0, 2..3 in bucket 1, and so on.
func TestHistogramEmptyAndBuckets(t *testing.T) {
	var h trace.Histogram
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Sum != 1033 || h.Min != 0 || h.Max != 1023 {
		t.Errorf("histogram totals wrong: %+v", h)
	}
	want := map[int]uint64{0: 2, 1: 2, 2: 1, 9: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// TestMetricsSingleProcessorRun runs a real single-processor simulation
// under AEC — never contended, no remote sharer to ship diffs to — and
// checks the summary stays coherent: every wait observation pairs with an
// acquire (the uncontended manager round-trip), lock prediction never
// misses, and no diff is ever applied.
func TestMetricsSingleProcessorRun(t *testing.T) {
	m := trace.NewMetrics()
	p := memsys.Default()
	p.NumProcs = 1
	p.MeshW, p.MeshH = 1, 1
	harness.RunFaultTraced(p, harness.NewProtocol(harness.ProtoAEC, 2),
		apps.NewCounter(2, 16, 4), m, nil).Must()

	s := m.Summary()
	if s.Events == 0 {
		t.Fatal("single-processor run traced no events")
	}
	for _, l := range s.Locks {
		if l.WaitCy.Count > l.Acquires {
			t.Errorf("lock %d: more wait observations than acquires: %+v", l.Lock, l)
		}
		if l.PredMiss != 0 {
			t.Errorf("lock %d: prediction missed with a single processor: %+v", l.Lock, l)
		}
	}
	for _, pg := range s.Pages {
		if pg.DiffsUsed > 0 {
			t.Errorf("page %d: single processor applied remote diffs: %+v", pg.Page, pg)
		}
	}
}
