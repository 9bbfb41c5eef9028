package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"aecdsm/internal/lint/analysis"
)

// Singlethread enforces the simulator's cooperative-scheduling contract:
// exactly one of {engine, some processor goroutine} executes at any
// instant, so the protocol packages must not introduce real concurrency.
// Goroutines, iter.Pull coroutines, channel operations, select statements
// and sync/sync-atomic primitives are forbidden inside the single-runner
// core. The engine's hand-off is the one exception: it creates each
// processor body's coroutine with iter.Pull, behind //dsmvet:allow.
//
// The driver layers (harness, check) are in scope too, with one
// deliberately different boundary: a file carrying a
//
//	//dsmvet:crossengine <reason>
//
// marker declares that its concurrency runs *between* isolated engines
// (the parallel experiment scheduler), never inside one. Such a file is
// exempt from the concurrency bans, but in exchange it must not touch any
// engine-internal primitive — calling one from cross-engine code would
// put two runners inside a single engine, the exact bug this analyzer
// exists to prevent.
var Singlethread = &analysis.Analyzer{
	Name: "singlethread",
	Doc: "forbid go statements, iter.Pull coroutines, channel operations and sync " +
		"primitives in the cooperatively-scheduled simulator core (engine.go: \"no " +
		"locking is needed anywhere\"); only the engine's one iter.Pull per processor " +
		"body is exempt, plus //dsmvet:crossengine files whose concurrency is across " +
		"isolated engines",
	Run: runSinglethread,
}

// singlethreadScope is the single-runner core plus the driver layers that
// may host cross-engine scheduling (in marked files only).
var singlethreadScope = append([]string{"harness", "check"}, protocolScope...)

// crossenginePrefix marks a whole file as cross-engine scheduler code.
const crossenginePrefix = "//dsmvet:crossengine"

// crossengineMarker finds a file's //dsmvet:crossengine directive,
// returning its position and trailing reason.
func crossengineMarker(file *ast.File) (pos token.Pos, reason string, ok bool) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text == crossenginePrefix || strings.HasPrefix(c.Text, crossenginePrefix+" ") {
				return c.Pos(), strings.TrimSpace(strings.TrimPrefix(c.Text, crossenginePrefix)), true
			}
		}
	}
	return token.NoPos, "", false
}

func runSinglethread(pass *analysis.Pass) (any, error) {
	if !inRepoScope(pass.Pkg.Path(), singlethreadScope...) {
		return nil, nil
	}
	var crossFiles []*ast.File
	for _, file := range pass.Files {
		if pos, reason, ok := crossengineMarker(file); ok {
			if reason == "" {
				pass.Reportf(pos, "//dsmvet:crossengine is missing its mandatory reason")
			}
			crossFiles = append(crossFiles, file)
			checkCrossengineFile(pass, file)
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(x.Pos(), "go statement spawns a second runner in the cooperatively-scheduled core")
			case *ast.SendStmt:
				pass.Reportf(x.Pos(), "channel send in the single-runner core; protocol state is handed off via the engine, not channels")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.Pos(), "channel receive in the single-runner core; protocol state is handed off via the engine, not channels")
				}
			case *ast.SelectStmt:
				pass.Reportf(x.Pos(), "select statement in the single-runner core; the engine's event loop is the only scheduler")
			case *ast.RangeStmt:
				if t := pass.TypeOf(x.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(x.Pos(), "range over a channel in the single-runner core")
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
					if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
						if t := pass.TypeOf(x.Args[0]); t != nil {
							if _, ok := t.Underlying().(*types.Chan); ok {
								pass.Reportf(x.Pos(), "channel creation in the single-runner core; nothing in it may use channels")
							}
						}
					}
				}
			}
			return true
		})
	}

	// Any use of sync or sync/atomic: the core's whole design premise is
	// that no locking is needed anywhere (see sim.Engine's doc comment).
	// Any use of iter.Pull/Pull2, called or not: a pulled sequence runs on
	// its own goroutine, a second runner just as a go statement is.
	// Cross-engine files coordinate isolated engines and are exempt.
	inCross := func(pos token.Pos) bool {
		for _, f := range crossFiles {
			if pos >= f.FileStart && pos <= f.FileEnd {
				return true
			}
		}
		return false
	}
	type use struct {
		pos token.Pos
		msg string
	}
	var uses []use
	for id, obj := range pass.TypesInfo.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		if inCross(id.Pos()) {
			continue
		}
		switch p, name := obj.Pkg().Path(), obj.Name(); {
		case p == "sync" || p == "sync/atomic":
			uses = append(uses, use{id.Pos(), "use of " + p + "." + name + " in the single-runner core: the simulator guarantees one runner at a time, so locking hides bugs instead of fixing them"})
		case p == "iter" && (name == "Pull" || name == "Pull2"):
			uses = append(uses, use{id.Pos(), "iter." + name + " spawns a second runner in the cooperatively-scheduled core; only the engine's hand-off may create a coroutine"})
		}
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].pos < uses[j].pos })
	for _, u := range uses {
		pass.Reportf(u.pos, "%s", u.msg)
	}
	return nil, nil
}

// checkCrossengineFile enforces the flip side of the //dsmvet:crossengine
// exemption: concurrency is allowed, but engine-internal primitives are
// not — cross-engine code drives whole runs, it never steps inside one
// engine's cooperative schedule.
func checkCrossengineFile(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || !engineInternal(callee) {
			return true
		}
		pass.Reportf(call.Pos(),
			"engine-internal primitive %s.%s called from a //dsmvet:crossengine file; cross-engine code drives whole isolated runs and must never step inside one engine",
			recvNamed(callee).Obj().Name(), callee.Name())
		return true
	})
}

// engineInternal reports whether fn steps inside one engine's cooperative
// schedule: the Proc primitives that advance or yield a processor
// (Advance/Block/WaitUntil/Checkpoint), Engine.SendFrom, every exported
// proto.Ctx or proto.Protocol method (they run on a processor), and the
// Svc charges and sends. Those last only add to s.Now and never yield, but
// a Svc exists only inside a handler the engine is dispatching.
func engineInternal(fn *types.Func) bool {
	n := recvNamed(fn)
	if n == nil {
		return false
	}
	obj := n.Obj()
	switch {
	case pkgIs(obj.Pkg(), "sim") && obj.Name() == "Proc":
		switch fn.Name() {
		case "Advance", "Block", "WaitUntil", "Checkpoint":
			return true
		}
	case pkgIs(obj.Pkg(), "sim") && obj.Name() == "Svc":
		switch fn.Name() {
		case "Charge", "ChargeList", "ChargeMem", "Send":
			return true
		}
	case pkgIs(obj.Pkg(), "sim") && obj.Name() == "Engine":
		return fn.Name() == "SendFrom"
	case pkgIs(obj.Pkg(), "proto") && (obj.Name() == "Ctx" || obj.Name() == "Protocol"):
		return ast.IsExported(fn.Name())
	}
	return false
}
