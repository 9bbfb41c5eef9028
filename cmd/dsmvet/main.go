// Command dsmvet runs the repo's invariant lint suite (internal/lint) over
// the given package patterns, printing one line per finding and exiting
// nonzero when anything is flagged. The tests and the differential checker
// (cmd/fuzzdsm) reject invariant violations a run shows; dsmvet rejects the
// two kinds a deterministic run shows only by chance — real concurrency in
// the single-runner core and nondeterminism sources. See docs/LINTING.md.
//
// Usage:
//
//	go run ./cmd/dsmvet ./...
//	go run ./cmd/dsmvet -run determinism ./internal/aec
//	go run ./cmd/dsmvet -json ./...
//	go run ./cmd/dsmvet -unused-directives ./...
//	go run ./cmd/dsmvet -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aecdsm/internal/lint"
	"aecdsm/internal/lint/analysis"
	"aecdsm/internal/lint/loader"
)

// jsonFinding is the machine-readable shape of one finding, consumed by
// the GitHub Actions problem matcher and any editor integration.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind its boundary: it parses args, prints findings
// to out and diagnostics to errw, and returns the exit code — 0 clean, 1
// findings, 2 a usage or loading error.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("dsmvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	runFlag := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
	unusedFlag := fs.Bool("unused-directives", false,
		"report only directive hygiene: unused/malformed //dsmvet:allow and stale //dsmvet:crossengine markers")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: dsmvet [-list] [-run names] [-json] [-unused-directives] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *listFlag {
		for _, a := range all {
			fmt.Fprintf(out, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *runFlag != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runFlag, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(errw, "dsmvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(errw, "dsmvet: %v\n", err)
		return 2
	}

	var allFindings []lint.Finding
	for _, pkg := range pkgs {
		var findings []lint.Finding
		var err error
		if *unusedFlag {
			findings, err = lint.AuditDirectives(pkg, analyzers)
		} else {
			findings, err = lint.RunPackage(pkg, analyzers)
		}
		if err != nil {
			fmt.Fprintf(errw, "dsmvet: %v\n", err)
			return 2
		}
		allFindings = append(allFindings, findings...)
	}

	if *jsonFlag {
		js := make([]jsonFinding, 0, len(allFindings))
		for _, f := range allFindings {
			js = append(js, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(js); err != nil {
			fmt.Fprintf(errw, "dsmvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range allFindings {
			fmt.Fprintln(out, f)
		}
	}
	if len(allFindings) > 0 {
		return 1
	}
	return 0
}
