package tm

// Seams for the external tests (package tm_test), which may import the
// harness and the checker; this package's own tests may not.

// Notice is one write notice as the external tests see it.
type Notice struct{ Writer, Seq, Page int }

// OnFreshNotice has f called with every fresh write notice a processor
// receives, where the protocol used to append it to a per-processor
// history.
func (pr *TM) OnFreshNotice(f func(proc int, n Notice)) {
	pr.noted = func(proc int, wn wnRef) { f(proc, Notice{wn.proc, wn.seq, wn.page}) }
}

// FirstTouchSet is the set of notices a first-touch fault of page at proc
// derives from the machine-wide log right now, in request order.
func (pr *TM) FirstTouchSet(proc, page int) []Notice {
	var out []Notice
	for _, row := range pr.log[page] {
		if row.writer == proc {
			continue
		}
		for _, seq := range row.seenBy(pr.ps[proc].vc) {
			out = append(out, Notice{row.writer, seq, page})
		}
	}
	return out
}
