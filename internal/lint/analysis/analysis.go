// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver surface, just large enough to host
// the dsmvet analyzers (see docs/LINTING.md). The container this repo is
// built in has no module proxy access, so vendoring x/tools is not an
// option; the types here mirror the upstream API shape (Analyzer, Pass,
// Diagnostic) so the suite can be ported to the real framework by swapping
// import paths if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dsmvet:allow directives. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of the invariant enforced,
	// shown by `dsmvet -list`.
	Doc string

	// Run performs the analysis. It may return an arbitrary result
	// (unused by the dsmvet driver, kept for x/tools API parity).
	Run func(*Pass) (any, error)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report publishes a diagnostic. The driver applies //dsmvet:allow
	// filtering and deterministic ordering afterwards.
	Report func(Diagnostic)
}

// Reportf is the printf-style convenience wrapper over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of the expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
