package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aecdsm/internal/lint/loader"
)

// determinism enforces reproducible virtual time: two runs with the same
// configuration must produce byte-identical metrics. Wall-clock reads and
// the global math/rand stream are findings, and so is iterating a map when
// the body's effects depend on iteration order: emitting events, sending
// messages, charging cycles, or accumulating into an outer slice that is
// never sorted afterwards (Go randomizes map order per run).
func determinism(pkg *loader.Package, report func(token.Pos, string)) {
	if !inScope(pkg.Types.Path(), determinismScope) {
		return
	}
	info := pkg.Info
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch x := n.(type) {
			case *ast.BlockStmt:
				list = x.List
			case *ast.CaseClause:
				list = x.Body
			case *ast.CommClause:
				list = x.Body
			case *ast.Ident:
				fn, ok := info.Uses[x].(*types.Func)
				if !ok || fn.Pkg() == nil {
					break
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" {
						report(x.Pos(), "time.Now reads the wall clock: the simulator runs on deterministic virtual time only")
					}
				case "math/rand", "math/rand/v2":
					if recvNamed(fn) == nil && !strings.HasPrefix(fn.Name(), "New") {
						report(x.Pos(), "global math/rand."+fn.Name()+" draws from a shared process-wide stream: use a per-run apps.Config stream")
					}
				}
			}
			// A range over a map is checked with the statements that follow
			// it in its list: a sort there restores determinism.
			for i, s := range list {
				if l, ok := s.(*ast.LabeledStmt); ok {
					s = l.Stmt
				}
				if rs, ok := s.(*ast.RangeStmt); ok {
					if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); ok {
						checkMapRange(info, rs, list[i+1:], report)
					}
				}
			}
			return true
		})
	}
}

// determinismScope adds the workload and checker layers to the protocol
// core: they feed the differential harness, whose checksums must be
// reproducible too.
var determinismScope = append([]string{"apps", "check", "harness"}, protocolScope...)

// orderSensitiveCalls are methods whose invocation order is observable in
// the event stream or the virtual clock, by name or, where the name alone
// would also take a read (proto.(*LockMgr).Lock), by receiver and name.
var orderSensitiveCalls = map[string]string{
	"Trace":            "emits a trace event",
	"Emitter.Event":    "emits a trace event",
	"Emitter.Lock":     "emits a trace event",
	"Emitter.LockNote": "emits a trace event",
	"Emitter.Page":     "emits a trace event",
	"Emitter.Diff":     "emits a trace event",
	"Send":             "sends a message",
	"SendFrom":         "sends a message",
	"Wake":             "schedules a wakeup",
	"Advance":          "charges cycles",
	"Charge":           "charges service cycles",
	"ChargeList":       "charges service cycles",
	"ChargeMem":        "charges service cycles",
	"Block":            "blocks the processor",
	"WaitUntil":        "blocks the processor",
}

// checkMapRange inspects one `for ... := range m` over a map, followed in
// its statement list by following.
func checkMapRange(info *types.Info, rs *ast.RangeStmt, following []ast.Stmt, report func(token.Pos, string)) {
	// Outer slices the body appends into, keyed by variable object.
	appends := make(map[types.Object]token.Pos)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			callee := calleeOf(info, x)
			if callee == nil || recvNamed(callee) == nil {
				break
			}
			rn := recvNamed(callee).Obj()
			why, ok := orderSensitiveCalls[rn.Name()+"."+callee.Name()]
			if !ok {
				why, ok = orderSensitiveCalls[callee.Name()]
			}
			if ok && (pkgIs(rn.Pkg(), "sim") || pkgIs(rn.Pkg(), "trace") || pkgIs(rn.Pkg(), "proto")) {
				report(x.Pos(), fmt.Sprintf("%s.%s inside range over a map %s in map order, which Go randomizes per run; iterate sorted keys instead", rn.Name(), callee.Name(), why))
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || len(x.Rhs) != len(x.Lhs) || !callsBuiltin(info, x.Rhs[i], "append") {
					continue
				}
				// Only slices declared outside the range body leak map
				// order out of the loop.
				if obj := info.ObjectOf(id); obj != nil && obj.Pos() < rs.Pos() {
					appends[obj] = x.Pos()
				}
			}
		}
		return true
	})
	// RunPackage sorts the findings, so this map's order does not show.
	for obj, pos := range appends {
		if !sortedAfter(info, following, obj) {
			report(pos, fmt.Sprintf("append to %q inside range over a map records map iteration order, which Go randomizes per run; sort %q afterwards or iterate sorted keys", obj.Name(), obj.Name()))
		}
	}
}

// sortedAfter reports whether any of the statements passes obj to a
// function of package sort or slices.
func sortedAfter(info *types.Info, stmts []ast.Stmt, obj types.Object) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if fn := calleeOf(info, call); fn != nil && fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
				for _, arg := range call.Args {
					ast.Inspect(arg, func(an ast.Node) bool {
						if id, ok := an.(*ast.Ident); ok && info.ObjectOf(id) == obj {
							found = true
						}
						return !found
					})
				}
			}
			return !found
		})
	}
	return found
}
