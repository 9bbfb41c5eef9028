package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"aecdsm/internal/lint/analysis"
)

// Blockingcharge v2 flags the TreadMarks double-diff race shape that PR
// 2's runtime auditor caught — protocol state loaded from a shared map
// (or slice), a call that advances virtual time, then a publication
// through the now-possibly-stale reference — as a flow-sensitive,
// interprocedural dataflow analysis over the CFG:
//
//   - flow-sensitive: staleness propagates along execution paths, not
//     source order. A charge on a branch that returns before the publish
//     is not a hazard; a charge at the bottom of a loop stales a
//     reference loaded before the loop for every later iteration.
//   - interprocedural (within the package): a helper that transitively
//     reaches a blocking primitive stales references exactly like a
//     direct Advance; a lookup helper returning m[k] starts tracking at
//     its call site; passing a stale reference to a helper that writes
//     through the parameter is a publication at the call site.
//   - the diagnostic carries the full witness path (load → blocking
//     charge → publish), also exported by `dsmvet -json`.
//
// Values derived from a tracked record — aliases, reference-typed field
// reads like rec.diffs — go stale together with the record. Writes
// through stable references (the per-processor state parameter, receiver
// fields) are deliberately not tracked: those pointers cannot be
// replaced mid-charge, so mutating through them is a (possible)
// lost-update question for the runtime auditor, not the stale-reference
// shape this analyzer encodes.
var Blockingcharge = &analysis.Analyzer{
	Name: "blockingcharge",
	Doc: "flag protocol state loaded from a map/slice and published through " +
		"after a blocking charge on some execution path (flow-sensitive, " +
		"call-aware; reports the load→charge→publish witness path) — the " +
		"TreadMarks double-diff race shape; publish before the charge or " +
		"reload the record after it",
	Run: runBlockingcharge,
}

var blockingchargeScope = []string{"proto", "aec", "tm", "munin", "lap", "lockpolicy"}

func runBlockingcharge(pass *analysis.Pass) (any, error) {
	if !inRepoScope(pass.Pkg.Path(), blockingchargeScope...) {
		return nil, nil
	}
	sums := summarize(pass)
	for _, file := range pass.Files {
		eachBody(file, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
			lat := &bcLattice{pass: pass, sums: sums}
			g := BuildCFG(body)
			in := Solve(g, lat)
			for _, blk := range g.Blocks {
				f, ok := in[blk]
				if !ok {
					continue // unreachable
				}
				m := lat.Clone(f).(bcFact)
				for _, n := range blk.Nodes {
					lat.apply(n, m, func(d analysis.Diagnostic) { pass.Report(d) })
				}
			}
		})
	}
	return nil, nil
}

// bcState is the abstract state of one tracked reference.
type bcState struct {
	loadPos token.Pos
	desc    string    // description of the load ("map load st.undiffed[pg]")
	stale   token.Pos // NoPos while fresh; else the staling blocking call
}

// bcFact maps each watched local to its state.
type bcFact map[types.Object]bcState

// bcLattice is the staleness dataflow problem (a may-analysis: a
// reference stale on any path into a publish is a hazard).
type bcLattice struct {
	pass *analysis.Pass
	sums *pkgFacts
}

func (l *bcLattice) Entry() Fact { return make(bcFact) }

func (l *bcLattice) Clone(f Fact) Fact {
	m := f.(bcFact)
	out := make(bcFact, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (l *bcLattice) Join(a, b Fact) Fact {
	am, bm := a.(bcFact), b.(bcFact)
	out := make(bcFact, len(am))
	for k, v := range am {
		out[k] = v
	}
	for k, v := range bm {
		cur, ok := out[k]
		if !ok {
			out[k] = v
			continue
		}
		// Stale on either path wins; keep the earlier-known staling site
		// deterministically (smallest Pos).
		if v.stale != token.NoPos && (cur.stale == token.NoPos || v.stale < cur.stale) {
			cur.stale = v.stale
			cur.loadPos, cur.desc = v.loadPos, v.desc
			out[k] = cur
		}
	}
	return out
}

func (l *bcLattice) Equal(a, b Fact) bool {
	am, bm := a.(bcFact), b.(bcFact)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		w, ok := bm[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func (l *bcLattice) Transfer(n ast.Node, f Fact) Fact {
	m := f.(bcFact)
	l.apply(n, m, nil)
	return m
}

// apply runs one node's effect on the fact, reporting hazards when a
// report sink is given (the post-solve sweep).
func (l *bcLattice) apply(n ast.Node, m bcFact, report func(analysis.Diagnostic)) {
	// Range bindings rebind the value variable to a fresh load from the
	// ranged container on every iteration.
	if rb, ok := n.(RangeBinding); ok {
		l.applyRangeBinding(rb, m)
		return
	}

	// Calls, in evaluation order: a publication through a stale argument
	// is a hazard; a blocking callee stales every tracked reference.
	for _, call := range callsIn(n) {
		l.applyCall(call, m, report)
	}

	switch x := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range x.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				l.rebind(id, rhsFor(x, i), m)
				continue
			}
			l.checkWrite(lhs, "write", m, report)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					l.rebind(name, rhs, m)
				}
			}
		}
	case *ast.IncDecStmt:
		if _, isIdent := x.X.(*ast.Ident); !isIdent {
			l.checkWrite(x.X, "increment", m, report)
		}
	}
}

// applyRangeBinding tracks `for _, v := range m` value bindings over
// maps and slices of references: v is a freshly loaded record each
// iteration (so a charge inside the body stales it for the rest of that
// iteration only).
func (l *bcLattice) applyRangeBinding(rb RangeBinding, m bcFact) {
	rng := rb.Rng
	for _, bindExpr := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := bindExpr.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := l.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		delete(m, obj)
	}
	if rng.Value == nil {
		return
	}
	id, ok := rng.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := l.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	t := l.pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	var elem types.Type
	var kind string
	switch u := t.Underlying().(type) {
	case *types.Map:
		elem, kind = u.Elem(), "map range value"
	case *types.Slice:
		if !l.sums.mutableSlices[sliceBaseObj(l.pass.TypesInfo, rng.X)] {
			return
		}
		elem, kind = u.Elem(), "slice range value"
	default:
		return
	}
	if !isRefType(elem) {
		return
	}
	m[obj] = bcState{loadPos: id.Pos(), desc: fmt.Sprintf("%s %s over %s", kind, id.Name, types.ExprString(rng.X))}
}

// applyCall handles one call: hazard-check stale arguments against the
// callee's publication summary, then stale-ify on blocking.
func (l *bcLattice) applyCall(call *ast.CallExpr, m bcFact, report func(analysis.Diagnostic)) {
	info := l.pass.TypesInfo
	callee := calleeOf(info, call)

	// delete(rec.f, k) through a tracked record is a publication.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			l.checkWrite(call.Args[0], "delete", m, report)
			return
		}
	}
	if callee == nil {
		return
	}

	cs := l.sums.funcs[callee]
	calleeBlocking := blockingPrim(callee) || (cs != nil && cs.blocking)

	// Publication through an argument the callee writes through.
	if cs != nil && report != nil {
		for argIdx, arg := range call.Args {
			pubPos, pub := cs.publishes[argIdx]
			if !pub {
				continue
			}
			l.checkHelperPublish(call, callee, arg, pubPos, cs, m, report)
		}
		if pubPos, pub := cs.publishes[receiverIndex]; pub {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				l.checkHelperPublish(call, callee, sel.X, pubPos, cs, m, report)
			}
		}
	}

	if calleeBlocking {
		pos := call.Pos()
		for k, st := range m {
			if st.stale == token.NoPos {
				st.stale = pos
				m[k] = st
			}
		}
	}
}

// checkHelperPublish reports a call that hands a reference to a callee
// publishing through it. Fresh references are a hazard only when the
// callee blocks before its own publication (then the reference goes
// stale inside the call).
func (l *bcLattice) checkHelperPublish(call *ast.CallExpr, callee *types.Func, arg ast.Expr, pubPos token.Pos, cs *funcSummary, m bcFact, report func(analysis.Diagnostic)) {
	base := baseIdent(arg)
	if base == nil {
		return
	}
	obj := l.pass.TypesInfo.ObjectOf(base)
	st, tracked := m[obj]
	if !tracked {
		return
	}
	stalePos := st.stale
	if stalePos == token.NoPos {
		// Fresh at the call: hazardous only if the callee itself blocks
		// before writing through the parameter.
		if !cs.blocking || cs.blockingPos >= pubPos {
			return
		}
		stalePos = cs.blockingPos
	}
	l.reportStale(report, call.Pos(),
		fmt.Sprintf("call to %s publishes through %s", callee.Name(), base.Name),
		st, stalePos)
}

// rebind updates the tracking of a plain identifier assignment.
func (l *bcLattice) rebind(id *ast.Ident, rhs ast.Expr, m bcFact) {
	obj := l.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if st, ok := l.loadState(rhs, m); ok {
		m[obj] = st
		return
	}
	delete(m, obj)
}

// loadState derives the tracking state an RHS expression confers: a
// fresh state for map/slice loads and loader-helper calls, the source's
// state for aliases and reference-typed reads out of a tracked record.
func (l *bcLattice) loadState(rhs ast.Expr, m bcFact) (bcState, bool) {
	if rhs == nil {
		return bcState{}, false
	}
	info := l.pass.TypesInfo
	e := ast.Unparen(rhs)
	switch x := e.(type) {
	case *ast.IndexExpr:
		t := info.TypeOf(x.X)
		if t != nil {
			var elem types.Type
			var kind string
			switch u := t.Underlying().(type) {
			case *types.Map:
				elem, kind = u.Elem(), "map load "
			case *types.Slice:
				// Slice loads are watched only when the package replaces
				// elements of this slice during simulation; tables filled
				// once at construction hand out stable references.
				if l.sums.mutableSlices[sliceBaseObj(info, x.X)] {
					elem, kind = u.Elem(), "slice load "
				}
			}
			if elem != nil && isRefType(elem) {
				// A load out of a tracked record inherits the record's
				// staleness (rec.diffs[pg] read after rec went stale is
				// already suspect, but the write is what we flag).
				if base := baseIdent(x.X); base != nil {
					if st, ok := m[info.ObjectOf(base)]; ok {
						st2 := st
						st2.desc = kind + types.ExprString(e) + " (from " + st.desc + ")"
						return st2, true
					}
				}
				return bcState{loadPos: e.Pos(), desc: kind + types.ExprString(e)}, true
			}
		}
	case *ast.Ident:
		if st, ok := m[info.ObjectOf(x)]; ok {
			return st, true
		}
	case *ast.SelectorExpr:
		// A reference-typed field read out of a tracked record belongs
		// to that record: it goes stale with it.
		t := info.TypeOf(e)
		if t != nil && isRefType(t) {
			if base := baseIdent(x.X); base != nil {
				if st, ok := m[info.ObjectOf(base)]; ok {
					st2 := st
					st2.desc = "field " + types.ExprString(e) + " of " + st.desc
					return st2, true
				}
			}
		}
	case *ast.CallExpr:
		if callee := calleeOf(info, x); callee != nil {
			if cs := l.sums.funcs[callee]; cs != nil && cs.returnsLoad != "" {
				return bcState{loadPos: x.Pos(), desc: cs.returnsLoad + " via " + callee.Name()}, true
			}
		}
	}
	return bcState{}, false
}

// checkWrite reports a write through a stale tracked reference.
func (l *bcLattice) checkWrite(lhs ast.Expr, verb string, m bcFact, report func(analysis.Diagnostic)) {
	if report == nil {
		return
	}
	base := baseIdent(lhs)
	if base == nil {
		return
	}
	st, ok := m[l.pass.TypesInfo.ObjectOf(base)]
	if !ok || st.stale == token.NoPos {
		return
	}
	l.reportStale(report, lhs.Pos(), verb+" through "+base.Name, st, st.stale)
}

// reportStale emits the diagnostic with its load→charge→publish witness
// path.
func (l *bcLattice) reportStale(report func(analysis.Diagnostic), pos token.Pos, what string, st bcState, stalePos token.Pos) {
	fset := l.pass.Fset
	report(analysis.Diagnostic{
		Pos: pos,
		Message: fmt.Sprintf("%s (%s loaded at line %d) after a blocking charge at line %d: the record may have been replaced or consumed while virtual time advanced; publish before the charge or reload the record after it [path: load line %d → blocking charge line %d → publish line %d]",
			what, st.desc, fset.Position(st.loadPos).Line, fset.Position(stalePos).Line,
			fset.Position(st.loadPos).Line, fset.Position(stalePos).Line, fset.Position(pos).Line),
		Steps: []analysis.Step{
			{Pos: st.loadPos, What: st.desc},
			{Pos: stalePos, What: "blocking charge"},
			{Pos: pos, What: what},
		},
	})
}
