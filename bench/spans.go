package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (spans inside the simulator are a later change).
// Start and End are host nanoseconds since the recorder was created;
// Parent indexes the enclosing span in the same file, -1 for a root.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	Workload  string `json:"workload"`
	Iteration int    `json:"iteration"`
}

// recorder keeps the spans of one traced pass in memory. A nil recorder
// records nothing, so the untraced pass shares the replica code without
// paying for a single clock read.
type recorder struct {
	t0        time.Time
	workload  string
	iteration int
	spans     []span
	open      []int
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Workload: r.workload, Iteration: r.iteration,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once (the union of their intervals).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf is the layer a span belongs to: its name up to the first ':'
// ("aec.run:IS/ns2" is a span of layer "aec.run").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ":")
	return layer
}

// secondsBy sums span durations per key(name). Spans that share a key are
// never nested in this benchmark, so nothing is counted twice.
func secondsBy(spans []span, key func(name string) string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[key(s.Name)] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// writeSpans writes one JSON object per span to out/trace-<workload>.jsonl
// under dir, with the self time the README tells readers to look at.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "out", "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		rec := struct {
			span
			Self int64 `json:"self"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
