package harness

import (
	"fmt"
	"io"

	"aecdsm/internal/apps"
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
// stacks stay live.
type Session struct {
	eng     *sim.Engine
	run     *stats.Run
	pr      proto.Protocol
	prog    proto.Program
	started bool
	more    bool
}

// NewSession composes (but does not start) a run. It panics when the
// program's splitter refuses the processor count, mirroring MustRun.
func NewSession(params memsys.Params, pr proto.Protocol, prog proto.Program) *Session {
	eng, run, split := compose(params, pr, prog, nil, nil)
	if split != nil {
		panic(fmt.Sprintf("harness: %s cannot run on %d processors: %v",
			prog.Name(), params.NumProcs, split.SplitErr))
	}
	return &Session{eng: eng, run: run, pr: pr, prog: prog, more: true}
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
func (s *Session) Snapshot() *stats.Run { return s.run.Clone() }

// Close ends the session where it stands, releasing every processor
// stack still parked in the engine. Idempotent.
func (s *Session) Close() {
	s.more = false
	s.eng.Close()
}

// Finish runs the session to completion with MustRun's failure checks
// and returns the result.
func (s *Session) Finish() *Result {
	defer s.Close()
	if !s.started {
		s.started = true
		s.eng.Start()
	} else {
		s.eng.Finish()
	}
	r := &Result{
		Run:        s.run,
		Protocol:   s.pr,
		Program:    s.prog,
		VerifyErr:  s.prog.Err(),
		Deadlocked: s.eng.Deadlocked,
	}
	if r.Deadlocked {
		panic(fmt.Sprintf("harness: %s under %s deadlocked", s.prog.Name(), s.pr.Name()))
	}
	if r.VerifyErr != nil {
		panic(fmt.Sprintf("harness: %s under %s failed verification: %v",
			s.prog.Name(), s.pr.Name(), r.VerifyErr))
	}
	return r
}

// timelineSteps is the number of horizon samples per protocol.
const timelineSteps = 6

// timelineKinds are the protocols the timeline compares.
func timelineKinds() []ProtocolKind { return []ProtocolKind{ProtoAEC, ProtoTM} }

// timelineSnapshots samples one protocol's statistics at sixths of its own
// runtime: one cold run to completion fixes the total, then one paused
// engine walks the horizons, each snapshot costing only the events since
// the previous one. The cold replay — a fresh engine per horizon — survives
// as the reference inside TestTimelineWarmMatchesCold.
func (e *Experiments) timelineSnapshots(app string, kind ProtocolKind) (total uint64, snaps []*stats.Run) {
	prog := func() proto.Program {
		return appsFactory(app)(apps.Config{Scale: e.Scale, BaseSeed: e.BaseSeed})
	}
	total = MustRun(e.Params, e.protocol(kind, 2), prog()).Cycles()
	sess := NewSession(e.Params, e.protocol(kind, 2), prog())
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
