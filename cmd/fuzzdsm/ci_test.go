package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ci_digests.txt from the lines run")

// ciLines returns the arguments of each fuzzdsm line of CI's "Fuzz (quick)"
// step that runs without the race detector, read from the workflow file.
func ciLines(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, step, ok := strings.Cut(string(src), "- name: Fuzz (quick)\n")
	if !ok {
		t.Fatal(`ci.yml has no "Fuzz (quick)" step`)
	}
	step, _, _ = strings.Cut(step, "- name:")
	var lines [][]string
	for _, line := range strings.Split(step, "\n") {
		if args, ok := strings.CutPrefix(strings.TrimSpace(line), "go run ./cmd/fuzzdsm"); ok {
			lines = append(lines, strings.Fields(args))
		}
	}
	if len(lines) == 0 {
		t.Fatal(`ci.yml's "Fuzz (quick)" step runs no fuzzdsm line without the race detector`)
	}
	return lines
}

// TestCIFuzzLines is the byte identity of the fuzzer lines CI runs on every
// change: each line's exit code and the SHA-256 of its stdout must match
// testdata/ci_digests.txt, one line per CI line, in CI's order. A change
// that moves what the fuzzer prints fails here. A change that means to —
// or a new line in the step — rewrites the file:
//
//	go test ./cmd/fuzzdsm -run TestCIFuzzLines -update-golden
func TestCIFuzzLines(t *testing.T) {
	if testing.Short() {
		t.Skip("the CI fuzzer lines take about 3 s")
	}
	var got bytes.Buffer
	for _, args := range ciLines(t) {
		var out, errw bytes.Buffer
		code := run(args, &out, &errw)
		fmt.Fprintf(&got, "exit %d sha256 %x  fuzzdsm %s\n", code, sha256.Sum256(out.Bytes()), strings.Join(args, " "))
	}
	path := filepath.Join("testdata", "ci_digests.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digests (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the CI fuzzer lines moved:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}
