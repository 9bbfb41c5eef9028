package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"aecdsm/internal/lint/loader"
)

// singlethread enforces the simulator's cooperative-scheduling contract:
// exactly one of {engine, some processor body} executes at any instant
// (sim.Engine: "no locking is needed anywhere"), so the single-runner core
// must not introduce real concurrency. Goroutines, iter.Pull coroutines,
// channel operations, select statements and sync/sync-atomic primitives
// are findings. The engine's hand-off is the one excused exception: it
// creates each processor body's coroutine with iter.Pull.
//
// The driver layers (harness, check) are held to the same bans, with one
// deliberately different boundary: concurrency there may run *between*
// isolated engines (the parallel experiment scheduler), and the allowance
// table excuses such a file. In exchange, a driver-layer file that uses
// concurrency must not call an engine-internal primitive, and no allowance
// excuses that: calling one from cross-engine code would put two runners
// inside a single engine, the exact bug this rule exists to prevent.
func singlethread(pkg *loader.Package, report func(token.Pos, string)) {
	path := pkg.Types.Path()
	driver := inScope(path, driverLayers)
	if !driver && !inScope(path, protocolScope) {
		return
	}
	info := pkg.Info
	for _, file := range pkg.Syntax {
		concurrent := false
		found := func(pos token.Pos, msg string) {
			concurrent = true
			report(pos, msg)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				found(x.Pos(), "go statement spawns a second runner in the cooperatively-scheduled core")
			case *ast.SendStmt:
				found(x.Pos(), "channel send in the single-runner core; protocol state is handed off via the engine, not channels")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					found(x.Pos(), "channel receive in the single-runner core; protocol state is handed off via the engine, not channels")
				}
			case *ast.SelectStmt:
				found(x.Pos(), "select statement in the single-runner core; the engine's event loop is the only scheduler")
			case *ast.RangeStmt:
				if isChan(info.TypeOf(x.X)) {
					found(x.Pos(), "range over a channel in the single-runner core")
				}
			case *ast.CallExpr:
				if callsBuiltin(info, x, "make") && isChan(info.TypeOf(x)) {
					found(x.Pos(), "channel creation in the single-runner core; nothing in it may use channels")
				}
			case *ast.Ident:
				// Any use of sync or sync/atomic: the core's whole design
				// premise is that no locking is needed anywhere. Any use of
				// iter.Pull/Pull2, called or not: a pulled sequence runs on
				// its own goroutine, a second runner just as a go statement
				// is.
				obj := info.Uses[x]
				if obj == nil || obj.Pkg() == nil {
					break
				}
				switch p, name := obj.Pkg().Path(), obj.Name(); {
				case p == "sync" || p == "sync/atomic":
					found(x.Pos(), "use of "+p+"."+name+" in the single-runner core: the simulator guarantees one runner at a time, so locking hides bugs instead of fixing them")
				case p == "iter" && (name == "Pull" || name == "Pull2"):
					found(x.Pos(), "iter."+name+" spawns a second runner in the cooperatively-scheduled core; only the engine's hand-off may create a coroutine")
				}
			}
			return true
		})
		if driver && concurrent {
			engineCalls(info, file, report)
		}
	}
}

// isChan reports whether t is a channel type.
func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// driverLayers run whole simulations and may fan them out across isolated
// engines.
var driverLayers = []string{"harness", "check"}

// engineCall begins the message of a finding no allowance excuses.
const engineCall = "engine-internal primitive "

// engineCalls reports every call to an engine-internal primitive in a
// driver-layer file that uses concurrency: cross-engine code drives whole
// isolated runs, it never steps inside one engine's cooperative schedule.
func engineCalls(info *types.Info, file *ast.File, report func(token.Pos, string)) {
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(info, call); fn != nil && engineInternal(fn) {
				report(call.Pos(), fmt.Sprintf("%s%s.%s called from a driver-layer file that uses concurrency; cross-engine code drives whole isolated runs and must never step inside one engine",
					engineCall, recvNamed(fn).Obj().Name(), fn.Name()))
			}
		}
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
