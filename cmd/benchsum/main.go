// Command benchsum condenses a `go test -json` benchmark stream into
// compact one-line-per-benchmark JSON records:
//
//	{"benchmark":"BenchmarkSchedule","ns_op":55.2,"b_op":0,"allocs_op":0}
//
// The raw stream interleaves run/output/pass events and splits result
// lines across output events, which makes BENCH_*.json files noisy to
// diff across PRs; the condensed form is stable, sorted by benchmark
// name, and carries exactly the numbers the performance trajectory
// tracks (docs/PERFORMANCE.md). Reads stdin, writes stdout:
//
//	go test -run '^$' -bench . -benchmem -json ./... | benchsum
//
// With -assert-zero-allocs 'regexp', benchsum exits nonzero when any
// matching benchmark reports a nonzero allocs/op, or when the regexp
// matches no benchmark at all — the CI bench-smoke gate for the zero-alloc
// engine paths.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event schema we need.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// record is one condensed benchmark result.
type record struct {
	Benchmark string   `json:"benchmark"`
	Package   string   `json:"package,omitempty"`
	NsOp      float64  `json:"ns_op"`
	BOp       *float64 `json:"b_op,omitempty"`
	AllocsOp  *float64 `json:"allocs_op,omitempty"`
	MBs       *float64 `json:"mb_s,omitempty"`
}

func main() {
	assertZero := flag.String("assert-zero-allocs", "",
		"fail when a benchmark matching this regexp reports nonzero allocs/op")
	flag.Parse()

	var zeroRe *regexp.Regexp
	if *assertZero != "" {
		var err error
		if zeroRe, err = regexp.Compile(*assertZero); err != nil {
			fmt.Fprintln(os.Stderr, "benchsum: bad -assert-zero-allocs:", err)
			os.Exit(2)
		}
	}
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, zeroRe))
}

// run condenses the `go test -json` stream on in into one record per
// line on out and, given zeroRe, applies the zero-alloc gate; it returns
// the process exit code.
func run(in io.Reader, out, errw io.Writer, zeroRe *regexp.Regexp) int {
	// Result lines may arrive split across several output events (the
	// name in one event, the measurements in the next), so accumulate
	// per-package partial lines and parse on newline.
	partial := make(map[string]string)
	var records []record
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise (plain-text bench output)
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			line := buf[:nl]
			buf = buf[nl+1:]
			if r, ok := parseBenchLine(line); ok {
				r.Package = ev.Package
				records = append(records, r)
			}
		}
		partial[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(errw, "benchsum: reading stdin:", err)
		return 1
	}

	sort.Slice(records, func(i, j int) bool {
		if records[i].Package != records[j].Package {
			return records[i].Package < records[j].Package
		}
		return records[i].Benchmark < records[j].Benchmark
	})

	enc := json.NewEncoder(out)
	failed := false
	matched := 0
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(errw, "benchsum:", err)
			return 1
		}
		if zeroRe != nil && zeroRe.MatchString(r.Benchmark) {
			matched++
			if r.AllocsOp == nil {
				fmt.Fprintf(errw, "benchsum: %s matched -assert-zero-allocs but reported no allocs/op (run with -benchmem)\n", r.Benchmark)
				failed = true
			} else if *r.AllocsOp != 0 {
				fmt.Fprintf(errw, "benchsum: %s allocates %g allocs/op, want 0\n", r.Benchmark, *r.AllocsOp)
				failed = true
			}
		}
	}
	// A gate that checked nothing has not passed: a renamed benchmark, or
	// one left out of -bench, must not drop out of it silently.
	if zeroRe != nil && matched == 0 {
		fmt.Fprintf(errw, "benchsum: -assert-zero-allocs %q matched no benchmark among %d results\n", zeroRe, len(records))
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// parseBenchLine parses one testing.B result line:
//
//	BenchmarkSchedule-8   20000000   55.2 ns/op   2996.96 MB/s   0 B/op   0 allocs/op
func parseBenchLine(line string) (record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return record{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the GOMAXPROCS suffix; it is machine detail, not identity.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := record{Benchmark: name}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		// A measurement JSON cannot carry (NaN, ±Inf) makes the line
		// noise, like one that is not a number at all.
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return record{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsOp, seen = v, true
		case "B/op":
			val := v
			r.BOp = &val
		case "allocs/op":
			val := v
			r.AllocsOp = &val
		case "MB/s":
			val := v
			r.MBs = &val
		}
	}
	return r, seen
}
