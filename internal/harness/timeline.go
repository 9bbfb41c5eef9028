package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/mem"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

// Session is a composed simulation driven in horizon slices: RunUntil
// pauses the engine with every processor stack live, so statistics can
// be sampled at a sequence of growing horizons without replaying from
// cycle zero — an engine warm start. A paused session's snapshot is
// byte-identical to a cold run stopped at the same horizon: the event
// sequence is deterministic and the pause point (next pending event at
// or beyond the horizon) is a pure function of the horizon. A session
// that is not run to Finish must be Closed, or its parked processor
// stacks stay live and its region never serves another run.
type Session struct {
	eng     *sim.Engine
	region  *mem.Region // the run's page memory; nil once given back
	res     *Result
	prog    proto.Program
	started bool
	more    bool
}

// NewSession composes (but does not start) a run. It panics when the
// program's splitter refuses the processor count (Result.Must).
func NewSession(params memsys.Params, pr proto.Protocol, prog proto.Program) *Session {
	m, rg, res := compose(params, pr, prog, nil, nil)
	res.Must()
	return &Session{eng: m.E, region: rg, res: res, prog: prog, more: true}
}

// RunUntil advances the session to the given virtual-time horizon
// (first call starts it, later calls continue it) and reports whether
// the run still has events pending.
func (s *Session) RunUntil(horizon uint64) bool {
	if !s.more {
		return false
	}
	if !s.started {
		s.started = true
		s.more = s.eng.StartUntil(sim.Time(horizon))
	} else {
		s.more = s.eng.ContinueUntil(sim.Time(horizon))
	}
	return s.more
}

// Snapshot deep-copies the session's statistics as of the current pause
// point.
func (s *Session) Snapshot() *stats.Run { return s.res.Run.Clone() }

// Close ends the session where it stands, releasing every processor
// stack still parked in the engine and then the session's region.
// Idempotent.
func (s *Session) Close() {
	s.more = false
	s.eng.Close()
	if s.region != nil {
		releaseRegion(s.region)
		s.region = nil
	}
}

// Finish runs the session to completion and returns the result, which
// must have verified (Result.Must).
func (s *Session) Finish() *Result {
	// Until the run has verified, Close must not give the region back: a
	// panic below leaves it to the collector.
	rg := s.region
	s.region = nil
	defer s.Close()
	if !s.started {
		s.started = true
		s.eng.Start()
	} else {
		s.eng.Finish()
	}
	s.res.VerifyErr, s.res.Deadlocked = s.prog.Err(), s.eng.Deadlocked
	s.res.Must()
	s.region = rg
	return s.res
}

// timelineSteps is the number of horizon samples per protocol.
const timelineSteps = 6

// timelineKinds are the protocols the timeline compares.
func timelineKinds() []ProtocolKind { return []ProtocolKind{ProtoAEC, ProtoTM} }

// timelineSnapshots samples one protocol's statistics at sixths of its own
// runtime: the memoized (and, with a Tracer, traced) table run fixes the
// total, then one paused engine replays it — untraced, the events are
// already in the stream — and walks the horizons, each snapshot costing
// only the events since the previous one. The cold replay — a fresh engine
// per horizon — survives as the reference inside
// TestTimelineWarmMatchesCold.
func (e *Experiments) timelineSnapshots(app string, kind ProtocolKind) (total uint64, snaps []*stats.Run) {
	spec := e.spec(app, kind, 2)
	total = e.outcome(spec).run.Cycles
	sess := NewSession(spec.params, NewProtocol(spec.proto, spec.ns), e.program(spec))
	for i := 1; i < timelineSteps; i++ {
		sess.RunUntil(total * uint64(i) / timelineSteps)
		snaps = append(snaps, sess.Snapshot())
	}
	return total, append(snaps, sess.Finish().Run)
}

// TimelineSweep renders the execution timeline of one application: the
// cumulative machine-wide cycle breakdown sampled at sixths of each
// protocol's own runtime.
func (e *Experiments) TimelineSweep(w io.Writer, app string) {
	e.prefetch(e.specsFor([]string{app}, timelineKinds()))
	fmt.Fprintf(w, "Execution timeline: %s at scale %.2f.\n", app, e.Scale)
	fmt.Fprintf(w, "Cumulative machine-wide cycle breakdown sampled at sixths of each protocol's\n")
	fmt.Fprintf(w, "own runtime. Warm and cold sampling render identical bytes (docs/PERFORMANCE.md).\n\n")
	fmt.Fprintf(w, "  %-9s %4s %14s %14s %14s %14s %12s %10s %10s\n",
		"protocol", "frac", "horizon", "busy", "data", "synch", "ipc", "others", "msgs")
	for _, kind := range timelineKinds() {
		total, snaps := e.timelineSnapshots(app, kind)
		for i, snap := range snaps {
			horizon := total * uint64(i+1) / timelineSteps
			b := snap.TotalBreakdown()
			msgs := snap.Sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
			fmt.Fprintf(w, "  %-9s  %d/%d %14d %14d %14d %14d %12d %10d %10d\n",
				kind, i+1, timelineSteps, horizon,
				b[stats.Busy], b[stats.Data], b[stats.Synch], b[stats.IPC], b[stats.Others], msgs)
		}
		fmt.Fprintln(w)
	}
}
