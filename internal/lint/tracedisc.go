package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"aecdsm/internal/lint/analysis"
)

// Tracedisc enforces the zero-perturbation tracing rule (see
// docs/OBSERVABILITY.md and DESIGN.md): every trace.Event construction and
// every Tracer emission must sit behind a nil check of a Tracer value, the
// guarded block must never charge simulated cycles (enabling tracing must
// not change a run), and diff-lifecycle events must carry the diff
// identity in Ref so the runtime auditor can follow twins and diffs.
var Tracedisc = &analysis.Analyzer{
	Name: "tracedisc",
	Doc: "trace.Event construction and Tracer.Trace emission must be behind " +
		"a tracer nil check, must never charge cycles (zero-perturbation " +
		"rule), and diff-lifecycle events must populate Ref",
	Run: runTracedisc,
}

// tracediscScope: every emitting layer; internal/trace itself (the sinks)
// is exempt, as are the drivers that own the sinks.
var tracediscScope = protocolScope

// diffKinds are the event kinds whose Ref field identifies a diff.
var diffKinds = map[string]bool{
	"KindDiffCreate": true,
	"KindDiffApply":  true,
	"KindDiffMerge":  true,
}

func runTracedisc(pass *analysis.Pass) (any, error) {
	if !inRepoScope(pass.Pkg.Path(), tracediscScope...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		parents := parentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isTracerEmit(pass, x) {
					checkGuarded(pass, parents, x, "Tracer.Trace emission")
				} else if kind, ok := traceEvCall(pass, x); ok {
					checkGuarded(pass, parents, x, "trace event construction")
					if diffKinds[kind] {
						checkRefPopulated(pass, parents, x, kind)
					}
				}
			case *ast.CompositeLit:
				if isTraceEventLit(pass, x) {
					checkGuarded(pass, parents, x, "trace.Event literal")
					if kind, ok := litKind(x); ok && diffKinds[kind] && !litHasField(x, "Ref") {
						pass.Reportf(x.Pos(), "trace.Event{Kind: trace.%s} does not populate Ref: diff-lifecycle events must carry the diff identity for the runtime auditor", kind)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isTracerEmit reports whether call is Tracer.Trace on a trace.Tracer.
func isTracerEmit(pass *analysis.Pass, call *ast.CallExpr) bool {
	callee := calleeOf(pass.TypesInfo, call)
	if callee == nil || callee.Name() != "Trace" {
		return false
	}
	n := recvNamed(callee)
	if n == nil {
		return false
	}
	// Emission sites hold the trace.Tracer interface; concrete sinks live
	// in internal/trace, which is out of scope.
	return n.Obj().Name() == "Tracer" && pkgIs(n.Obj().Pkg(), "trace")
}

// traceEvCall reports whether call is trace.Ev(...) and returns the kind
// constant name when the third argument is a trace.Kind selector.
func traceEvCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	callee := calleeOf(pass.TypesInfo, call)
	if callee == nil || callee.Name() != "Ev" || callee.Pkg() == nil || !pkgIs(callee.Pkg(), "trace") {
		return "", false
	}
	if len(call.Args) >= 3 {
		if sel, ok := ast.Unparen(call.Args[2]).(*ast.SelectorExpr); ok {
			return sel.Sel.Name, true
		}
		if id, ok := ast.Unparen(call.Args[2]).(*ast.Ident); ok {
			return id.Name, true
		}
	}
	return "", true
}

// isTraceEventLit reports whether lit is a trace.Event composite literal.
func isTraceEventLit(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	t := pass.TypeOf(lit)
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Event" && pkgIs(n.Obj().Pkg(), "trace")
}

func litKind(lit *ast.CompositeLit) (string, bool) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
			if sel, ok := ast.Unparen(kv.Value).(*ast.SelectorExpr); ok {
				return sel.Sel.Name, true
			}
			if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok {
				return id.Name, true
			}
		}
	}
	return "", false
}

func litHasField(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == name {
				return true
			}
		}
	}
	return false
}

// checkGuarded verifies the node sits inside an `if <tracer> != nil` body
// (or after an `if <tracer> == nil { return }` early-out) and that the
// guarded block never charges simulated cycles.
func checkGuarded(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node, what string) {
	guard := enclosingTracerGuard(pass, parents, n)
	if guard == nil {
		if !earlyReturnGuard(pass, parents, n) {
			pass.Reportf(n.Pos(), "%s is not behind a tracer nil check: with tracing disabled this path must cost one branch and zero allocations", what)
		}
		return
	}
	// Zero-perturbation: no cycle charges inside the tracing block
	// (primitives only; helpers charge too but guards are tiny).
	ast.Inspect(guard.Body, func(gn ast.Node) bool {
		call, ok := gn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(pass.TypesInfo, call); callee != nil && blockingPrim(callee) {
			pass.Reportf(call.Pos(), "cycle charge inside a tracer nil-check block: tracing must never charge simulated cycles (zero-perturbation rule), so enabling it cannot change a run")
		}
		return true
	})
}

// enclosingTracerGuard walks up to find an if statement whose condition
// nil-checks a trace.Tracer-typed expression, with n inside its body.
func enclosingTracerGuard(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node) *ast.IfStmt {
	for cur := n; cur != nil; cur = parents[cur] {
		ifs, ok := parents[cur].(*ast.IfStmt)
		if !ok || ifs.Body != cur {
			continue
		}
		if condChecksTracer(pass, ifs.Cond, token.NEQ) {
			return ifs
		}
	}
	return nil
}

// earlyReturnGuard accepts the `if tr == nil { return }` prologue form:
// some earlier statement in an enclosing block bails out on a nil tracer.
func earlyReturnGuard(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node) bool {
	for cur := ast.Node(n); cur != nil; cur = parents[cur] {
		blk, ok := parents[cur].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, s := range blk.List {
			if s == cur {
				break
			}
			ifs, ok := s.(*ast.IfStmt)
			if !ok || !condChecksTracer(pass, ifs.Cond, token.EQL) {
				continue
			}
			for _, bs := range ifs.Body.List {
				if _, ok := bs.(*ast.ReturnStmt); ok {
					return true
				}
			}
		}
	}
	return false
}

// condChecksTracer reports whether cond contains `<expr> <op> nil` where
// expr has type trace.Tracer.
func condChecksTracer(pass *analysis.Pass, cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op || found {
			return !found
		}
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if !isNil(pass.TypesInfo, pair[1]) {
				continue
			}
			if t := pass.TypeOf(pair[0]); t != nil {
				if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Tracer" && pkgIs(n.Obj().Pkg(), "trace") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkRefPopulated requires `ev.Ref = ...` between `ev := trace.Ev(...,
// KindDiff*)` and the end of the enclosing block.
func checkRefPopulated(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr, kind string) {
	assign, ok := parents[call].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 {
		pass.Reportf(call.Pos(), "trace.Ev(..., trace.%s) result must be bound so Ref can be populated: diff-lifecycle events carry the diff identity for the runtime auditor", kind)
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	for _, s := range stmtsAfter(parents, assign) {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Ref" {
				continue
			}
			if base, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(base) == obj {
				return
			}
		}
	}
	pass.Reportf(call.Pos(), "trace.Ev(..., trace.%s) event never populates Ref: diff-lifecycle events must carry the diff identity (mem.Diff.ID) for the runtime auditor", kind)
}
