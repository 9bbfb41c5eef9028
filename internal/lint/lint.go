// Package lint holds the rules for the two simulator invariants a
// deterministic run cannot check for itself: single-runner cooperative
// scheduling (singlethread) and reproducible virtual time (determinism).
// lint_test.go applies them to every package of the module and fails on a
// finding its allowance table does not excuse. See docs/LINTING.md for the
// invariants and the mutation evidence that keeps the rules this small.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"aecdsm/internal/lint/loader"
)

// Rule is one invariant check: Check reports each violation in a package
// as a position and a message.
type Rule struct {
	Name  string
	Check func(pkg *loader.Package, report func(token.Pos, string))
}

// Analyzers returns both rules in reporting order.
func Analyzers() []Rule {
	return []Rule{
		{"singlethread", singlethread},
		{"determinism", determinism},
	}
}

// Finding is one violation of one rule.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Rule)
}

// RunPackage applies the rules to one package and returns what they
// found, each finding once, sorted by position. A rule cannot fail, so the
// error is always nil.
func RunPackage(pkg *loader.Package, rules []Rule) ([]Finding, error) {
	var out []Finding
	seen := make(map[Finding]bool)
	for _, r := range rules {
		r.Check(pkg, func(pos token.Pos, msg string) {
			// A call inside nested map ranges is visited once per
			// enclosing range.
			f := Finding{Rule: r.Name, Pos: pkg.Fset.Position(pos), Message: msg}
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		})
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Offset, b.Pos.Offset), strings.Compare(a.Rule, b.Rule))
	})
	return out, nil
}

// ---- shared matching helpers ----------------------------------------------

// pkgIs reports whether p is the repo layer with the given base name.
func pkgIs(p *types.Package, base string) bool {
	return p != nil && p.Path() == "aecdsm/internal/"+base
}

// inScope reports whether the package path is one of the named internal
// layers.
func inScope(path string, bases []string) bool {
	for _, b := range bases {
		if path == "aecdsm/internal/"+b {
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

// callsBuiltin reports whether e is a call of the named built-in
// function.
func callsBuiltin(info *types.Info, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && info.Uses[id] == types.Universe.Lookup(name)
}
