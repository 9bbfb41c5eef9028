package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Chrome exports events in the Chrome trace_event JSON format, loadable
// in Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each
// simulated processor is rendered as one thread track under a single
// "aecdsm" process:
//
//   - every event becomes a thread-scoped instant ("i") marker;
//   - lock tenures (grant -> release) and barrier episodes (arrive ->
//     depart) additionally become complete ("X") spans, so contention and
//     load imbalance are visible as bars.
//
// Timestamps are microseconds of simulated time (1 cycle = 10ns, the
// paper's clock), formatted with integer math so output stays byte-
// deterministic. Close must be called to terminate the JSON document.
type Chrome struct {
	w      *bufio.Writer
	first  bool
	seen   map[int]bool      // procs with thread metadata written
	grants map[[2]int]uint64 // (proc, lock) -> grant cycle
	barIn  map[int]uint64    // proc -> barrier arrival cycle
	closed bool
}

// NewChrome builds a Chrome trace_event sink writing to w. Call Close
// when the run finishes.
func NewChrome(w io.Writer) *Chrome {
	c := &Chrome{
		w:      bufio.NewWriterSize(w, 1<<16),
		first:  true,
		seen:   map[int]bool{},
		grants: map[[2]int]uint64{},
		barIn:  map[int]uint64{},
	}
	fmt.Fprint(c.w, `{"displayTimeUnit":"ms","traceEvents":[`)
	return c
}

// usec renders a cycle count as a microsecond timestamp string (cycles
// are 10ns each), using integer math for determinism.
func usec(cycles uint64) string {
	return fmt.Sprintf("%d.%02d", cycles/100, cycles%100)
}

func (c *Chrome) sep() {
	if c.first {
		c.first = false
		fmt.Fprint(c.w, "\n")
	} else {
		fmt.Fprint(c.w, ",\n")
	}
}

func (c *Chrome) thread(proc int) {
	if c.seen[proc] {
		return
	}
	c.seen[proc] = true
	c.sep()
	fmt.Fprintf(c.w,
		`{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":"P%d"}}`,
		proc, proc)
	c.sep()
	// sort_index keeps tracks in processor order in the UI.
	fmt.Fprintf(c.w,
		`{"ph":"M","name":"thread_sort_index","pid":0,"tid":%d,"args":{"sort_index":%d}}`,
		proc, proc)
}

// Trace implements Tracer.
func (c *Chrome) Trace(ev Event) { c.TraceEvent(&ev) }

// TraceEvent reads ev in place (see Emitter).
func (c *Chrome) TraceEvent(ev *Event) {
	proc := ev.Proc
	if proc < 0 {
		proc = 0
	}
	c.thread(proc)

	// Span events for lock tenure and barrier episodes.
	switch ev.Kind {
	case KindLockGrant:
		c.grants[[2]int{proc, ev.Lock}] = ev.Cycle
	case KindLockRelease:
		if start, ok := c.grants[[2]int{proc, ev.Lock}]; ok && ev.Cycle >= start {
			delete(c.grants, [2]int{proc, ev.Lock})
			c.sep()
			fmt.Fprintf(c.w,
				`{"name":"hold lock %d","cat":"lock","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
				ev.Lock, usec(start), usec(ev.Cycle-start), proc)
		}
	case KindBarrierArrive:
		c.barIn[proc] = ev.Cycle
	case KindBarrierDepart:
		if start, ok := c.barIn[proc]; ok && ev.Cycle >= start {
			delete(c.barIn, proc)
			c.sep()
			fmt.Fprintf(c.w,
				`{"name":"barrier %d","cat":"barrier","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
				ev.Arg, usec(start), usec(ev.Cycle-start), proc)
		}
	}

	c.sep()
	fmt.Fprintf(c.w,
		`{"name":"%s","cat":"%s","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"lock":%d,"page":%d,"arg":%d,"arg2":%d`,
		ev.Kind, ev.Kind.Category(), usec(ev.Cycle), proc,
		ev.Lock, ev.Page, ev.Arg, ev.Arg2)
	if ev.Note != "" {
		fmt.Fprintf(c.w, `,"note":%s`, appendJSONString(nil, ev.Note))
	}
	fmt.Fprint(c.w, "}}")
}

// Close terminates the JSON document and flushes. The underlying writer
// is not closed. Safe to call once.
func (c *Chrome) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	fmt.Fprint(c.w, "\n]}\n")
	return c.w.Flush()
}
