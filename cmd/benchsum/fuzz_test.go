package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// FuzzRun feeds run fuzzed `go test -json` streams: raw bytes, followed by
// a fuzzed result text cut into two output events at a fuzzed point (the
// split the line accumulator exists for), with and without the zero-alloc
// gate. Whatever comes in, run does not panic, every line it writes is a
// JSON object, and it exits 0 — or 1 for a gate verdict or a read error,
// and then says which. The seed corpus is the f.Add list below plus
// testdata/fuzz/FuzzRun; CI gives it a short budget
// (`go test -fuzz FuzzRun ./cmd/benchsum`).
func FuzzRun(f *testing.F) {
	for _, seed := range []struct {
		stream, text string
	}{
		{event("BenchmarkSchedule-8 \t20000000\t 55.2 ns/op\t 0 B/op\t 0 allocs/op"), ""},
		{"", "BenchmarkMakeDiff/clean-8 \t941280\t 1367 ns/op\t2996.96 MB/s\t 0 B/op\t 0 allocs/op\n"},
		{"", "BenchmarkA-8 1 NaN ns/op 0 B/op 0 allocs/op\n"},
		{"plain text bench output\n" + event("=== RUN   BenchmarkSchedule"), "BenchmarkB 3 4 ns/op 12 B/op 1 allocs/op\nPASS\n"},
		{`{"Action":"pass","Package":"p"}` + "\n" + `{"Action":"output"`, "ok  \taecdsm\t12.3s\n"},
	} {
		for _, gate := range []bool{false, true} {
			f.Add([]byte(seed.stream), seed.text, uint8(len(seed.text)/2), gate)
		}
	}
	gateRe := regexp.MustCompile("^Benchmark[A-Z]")

	f.Fuzz(func(t *testing.T, stream []byte, text string, cut uint8, gate bool) {
		k := min(int(cut), len(text))
		in := append(append([]byte(nil), stream...), '\n')
		for _, part := range []string{text[:k], text[k:]} {
			ev, _ := json.Marshal(testEvent{Action: "output", Package: "p", Output: part})
			in = append(append(in, ev...), '\n')
		}
		var re *regexp.Regexp
		if gate {
			re = gateRe
		}
		var out, errw bytes.Buffer
		code := run(bytes.NewReader(in), &out, &errw, re)
		for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			var r map[string]any
			if line != "" && json.Unmarshal([]byte(line), &r) != nil {
				t.Fatalf("output line %q is not a JSON object", line)
			}
		}
		switch msg := errw.String(); {
		case code == 0 && msg == "":
		case code == 1 && strings.HasPrefix(msg, "benchsum: reading stdin:"):
		case code == 1 && gate && (strings.Contains(msg, "allocs/op") || strings.Contains(msg, "matched no benchmark")):
		default:
			t.Fatalf("exit %d, stderr %q", code, msg)
		}
	})
}
