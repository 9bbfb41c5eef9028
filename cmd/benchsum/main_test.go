package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	tests := []struct {
		line string
		ok   bool
		want record
	}{
		{
			line: "BenchmarkSchedule-8   \t20000000\t  55.2 ns/op\t       0 B/op\t       0 allocs/op",
			ok:   true,
			want: record{Benchmark: "BenchmarkSchedule", NsOp: 55.2, BOp: f(0), AllocsOp: f(0)},
		},
		{
			line: "BenchmarkMakeDiff/clean         \t  941280\t      1367 ns/op\t2996.96 MB/s\t       0 B/op\t       0 allocs/op",
			ok:   true,
			want: record{Benchmark: "BenchmarkMakeDiff/clean", NsOp: 1367, BOp: f(0), AllocsOp: f(0), MBs: f(2996.96)},
		},
		{
			line: "BenchmarkScaling/procs=64-8\t       1\t1234567890 ns/op",
			ok:   true,
			want: record{Benchmark: "BenchmarkScaling/procs=64", NsOp: 1234567890},
		},
		{line: "=== RUN   BenchmarkSchedule", ok: false},
		{line: "ok  \taecdsm\t12.3s", ok: false},
		{line: "BenchmarkBroken\tnot-a-number ns/op", ok: false},
	}
	for _, tc := range tests {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Benchmark != tc.want.Benchmark || got.NsOp != tc.want.NsOp ||
			!eq(got.BOp, tc.want.BOp) || !eq(got.AllocsOp, tc.want.AllocsOp) || !eq(got.MBs, tc.want.MBs) {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

func f(v float64) *float64 { return &v }

func eq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// TestAssertZeroAllocsGate: the gate fails on a nonzero allocs/op, on a
// match without -benchmem, and — the vacuous pass it used to allow — when
// results were seen but the regexp matched none of them.
func TestAssertZeroAllocsGate(t *testing.T) {
	event := func(line string) string {
		b, _ := json.Marshal(testEvent{Action: "output", Package: "aecdsm/internal/sim", Output: line + "\n"})
		return string(b) + "\n"
	}
	zero := event("BenchmarkSchedule-8 \t20000000\t 55.2 ns/op\t 0 B/op\t 0 allocs/op")
	leaky := event("BenchmarkSendDeliver-8 \t1000000\t 122 ns/op\t 96 B/op\t 1 allocs/op")
	nomem := event("BenchmarkHandoff-8 \t1000000\t 196 ns/op")
	tests := []struct {
		name, in, re string
		code         int
		stderr       string
	}{
		{"no gate", zero + leaky, "", 0, ""},
		{"all zero", zero, "BenchmarkSchedule$", 0, ""},
		{"nonzero", zero + leaky, "BenchmarkSchedule$|BenchmarkSendDeliver$", 1, "allocates 1 allocs/op"},
		{"unmatched nonzero ignored", zero + leaky, "BenchmarkSchedule$", 0, ""},
		{"no benchmem", nomem, "BenchmarkHandoff$", 1, "reported no allocs/op"},
		{"renamed benchmark", zero, "BenchmarkSched$", 1, "matched no benchmark among 1 results"},
		{"left out of -bench", "", "BenchmarkSchedule$", 1, "matched no benchmark among 0 results"},
	}
	for _, tc := range tests {
		var re *regexp.Regexp
		if tc.re != "" {
			re = regexp.MustCompile(tc.re)
		}
		var out, errw bytes.Buffer
		if code := run(strings.NewReader(tc.in), &out, &errw, re); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.stderr) || (tc.stderr == "" && errw.Len() > 0) {
			t.Errorf("%s: stderr %q, want it to contain %q", tc.name, errw.String(), tc.stderr)
		}
		if want := strings.Count(tc.in, "\n"); strings.Count(out.String(), "\n") != want {
			t.Errorf("%s: %d records out, want %d", tc.name, strings.Count(out.String(), "\n"), want)
		}
	}
}
