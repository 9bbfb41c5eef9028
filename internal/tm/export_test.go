package tm

// Seams for the external tests (package tm_test), which may import the
// harness and the checker; this package's own tests may not.

// Notice is one write notice as the external tests see it.
type Notice struct{ Writer, Seq, Page int }

// OnFreshNotice has f called with every fresh write notice a processor
// receives, where the protocol used to append it to a per-processor
// history, and whether Lazy Hybrid applied its diff directly.
func (pr *TM) OnFreshNotice(f func(proc int, n Notice, direct bool)) {
	pr.noted = func(proc int, wn wnRef, direct bool) { f(proc, Notice{wn.proc, wn.seq, wn.page}, direct) }
}

// FaultSet is the set of notices a fault of page at proc derives from the
// machine-wide log right now — each other writer's row between the page's
// seen clock and the processor's clock — in request order.
func (pr *TM) FaultSet(proc, page int) []Notice {
	var out []Notice
	st := pr.ps[proc]
	for _, row := range pr.log[page] {
		if row.writer == proc {
			continue
		}
		for _, seq := range row.between(st.pages[page].seen, st.vc) {
			out = append(out, Notice{row.writer, seq, page})
		}
	}
	return out
}

// Clocks calls f with every vector clock proc has published that is still
// reachable: its current clock, the clock of each of its closed intervals
// from the ivals-th on, the clock of its last lock request, and the clock
// of the last grant sent to it. It returns how many intervals proc has
// closed.
func (pr *TM) Clocks(proc, ivals int, f func(vc []int)) int {
	st := pr.ps[proc]
	f(st.vc)
	for _, rec := range st.ivals[ivals:] {
		f(rec.vc)
	}
	if st.acqVC != nil {
		f(st.acqVC)
	}
	if st.granted.vc != nil {
		f(st.granted.vc)
	}
	return len(st.ivals)
}

// Clock is proc's current vector clock.
func (pr *TM) Clock(proc int) []int { return pr.ps[proc].vc }
