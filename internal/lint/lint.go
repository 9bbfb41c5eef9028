// Package lint is dsmvet: static analyzers for the two simulator
// invariants a deterministic run cannot check for itself — single-runner
// cooperative scheduling and reproducible virtual time. See
// docs/LINTING.md for the invariants, the mutation evidence that keeps the
// suite this small, and the //dsmvet:allow escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"aecdsm/internal/lint/analysis"
	"aecdsm/internal/lint/loader"
)

// Analyzers returns the full dsmvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Singlethread,
		Determinism,
	}
}

// Finding is one post-filter diagnostic, ready for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunPackage executes the analyzers over one package, applies the
// //dsmvet:allow directives, and reports unused or malformed directives.
// Findings come back sorted by position for deterministic output.
func RunPackage(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	allows := analysis.CollectAllows(pkg.Fset, pkg.Syntax)
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	running := make(map[string]bool)
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var out []Finding
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
		}
		seen := make(map[string]bool)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if al := analysis.Match(allows, a.Name, pos.Filename, pos.Line); al != nil {
				al.Used = true
				continue
			}
			// A call inside nested map ranges is visited once per enclosing
			// range; report each distinct diagnostic once.
			key := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, d.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}

	for _, al := range allows {
		pos := pkg.Fset.Position(al.Pos)
		switch {
		case !known[al.Analyzer]:
			out = append(out, Finding{Analyzer: "allow", Pos: pos,
				Message: fmt.Sprintf("//dsmvet:allow names unknown analyzer %q", al.Analyzer)})
		case al.Reason == "":
			out = append(out, Finding{Analyzer: "allow", Pos: pos,
				Message: fmt.Sprintf("//dsmvet:allow %s is missing its mandatory reason", al.Analyzer)})
		case !al.Used && running[al.Analyzer]:
			out = append(out, Finding{Analyzer: "allow", Pos: pos,
				Message: fmt.Sprintf("unused //dsmvet:allow %s directive: nothing is suppressed here", al.Analyzer)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// ---- shared matching helpers ----------------------------------------------

const repoModule = "aecdsm"

// pkgIs reports whether p is the repo layer with the given base name.
// Fixture stubs under internal/lint/testdata use the bare base name as the
// import path ("sim", "stats"), so both spellings match.
func pkgIs(p *types.Package, base string) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	return path == base || path == repoModule+"/internal/"+base ||
		strings.HasSuffix(path, "/"+base)
}

// inRepoScope restricts an analyzer to the named internal layers of the
// real repo. Packages outside the module (analysistest fixtures) are always
// in scope so fixtures can exercise every rule directly.
func inRepoScope(path string, bases ...string) bool {
	if !strings.HasPrefix(path, repoModule) {
		return true
	}
	for _, b := range bases {
		if path == repoModule+"/internal/"+b {
			return true
		}
	}
	return false
}

// protocolScope is the single-runner core: every package that executes on
// simulated processors' coroutines or in message-service context.
var protocolScope = []string{"sim", "proto", "aec", "lap", "lockpolicy", "tm", "munin", "mem", "memsys", "network", "fault", "pool"}

// calleeOf resolves the called function or method of a call expression,
// returning nil for calls through function-typed variables and built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the named type of fn's receiver (dereferencing one
// pointer level), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// parentMap records each node's syntactic parent within a file.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
