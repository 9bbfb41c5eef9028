package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"aecdsm/internal/lint/analysis"
)

// Poolreset enforces the pool-hygiene contract behind the zero-alloc
// message path (docs/PERFORMANCE.md): an object recycled onto a free
// list carries state from its previous life, and any field that
// survives the round trip — a stale transport tag, a leftover payload
// pointer, an old vector-clock reference — resurfaces in a *different*
// message arbitrarily later, which is both a correctness landmine and a
// determinism hazard. The rule is mechanical so the contract cannot rot:
//
//  1. every append onto a free-list field (name ending in "Free") must
//     recycle a value that was field-reset first — a whole-value clear
//     (*m = T{}), a reset() call on it, or, for pooled slices, a
//     length-zero reslice (buf[:0]);
//  2. a parameterless reset() method on a pooled struct type must clear
//     every field: either one whole-value assignment through the
//     receiver, or an explicit assignment to each field, so adding a
//     field without extending reset is caught at lint time.
var Poolreset = &analysis.Analyzer{
	Name: "poolreset",
	Doc: "objects appended to *Free pool fields must be field-reset first, " +
		"and reset() methods on pooled types must clear every field",
	Run: runPoolreset,
}

func runPoolreset(pass *analysis.Pass) (any, error) {
	if !inRepoScope(pass.Pkg.Path(), protocolScope...) {
		return nil, nil
	}

	// Pass 1: the pooled pointer-element types — named struct types T
	// appearing as []*T in a free-list field anywhere in the package.
	pooled := make(map[*types.Named]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if !isFreeListName(name.Name) {
						continue
					}
					if nt := pooledElem(pass.TypeOf(f.Type)); nt != nil {
						pooled[nt] = true
					}
				}
			}
			return true
		})
	}

	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRecycleSites(pass, fd)
			checkResetCompleteness(pass, fd, pooled)
		}
	}
	return nil, nil
}

// isFreeListName reports whether a field name marks a pool free list.
func isFreeListName(name string) bool {
	return strings.HasSuffix(name, "Free") || name == "free"
}

// pooledElem returns the named struct type T when t is []*T, else nil.
func pooledElem(t types.Type) *types.Named {
	sl, ok := t.(*types.Slice)
	if !ok {
		return nil
	}
	p, ok := sl.Elem().(*types.Pointer)
	if !ok {
		return nil
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// checkRecycleSites walks one function in source order, tracking which
// identifiers have been field-reset, and flags free-list appends whose
// recycled value was not.
func checkRecycleSites(pass *analysis.Pass, fd *ast.FuncDecl) {
	reset := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			// Whole-value clear: *x = T{...} resets every field of x.
			for _, lhs := range st.Lhs {
				star, ok := ast.Unparen(lhs).(*ast.StarExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(star.X).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						reset[obj] = true
					}
				}
			}
			checkAppend(pass, st, reset)
		case *ast.CallExpr:
			// x.reset() / x.Reset() resets x.
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "reset" || sel.Sel.Name == "Reset") {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						reset[obj] = true
					}
				}
			}
		}
		return true
	})
}

// checkAppend flags `recv.xFree = append(recv.xFree, v)` when v is
// neither a reset identifier nor a length-zero reslice.
func checkAppend(pass *analysis.Pass, st *ast.AssignStmt, reset map[types.Object]bool) {
	for i, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
		if !ok || !isFreeListName(sel.Sel.Name) {
			continue
		}
		// The append must go back into the same free-list field.
		if i >= len(st.Lhs) {
			continue
		}
		for _, v := range call.Args[1:] {
			if recycledValueOK(pass, v, reset) {
				continue
			}
			pass.Reportf(v.Pos(), "value recycled onto %s without a field reset: clear it with *x = T{}, x.reset(), or recycle a length-zero reslice (x[:0]) so no state survives into its next life", sel.Sel.Name)
		}
	}
}

// recycledValueOK reports whether a value entering a free list is clean:
// a previously reset identifier, or a [:0] reslice.
func recycledValueOK(pass *analysis.Pass, v ast.Expr, reset map[types.Object]bool) bool {
	switch x := ast.Unparen(v).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		return obj != nil && reset[obj]
	case *ast.SliceExpr:
		if x.Low != nil {
			return false
		}
		if lit, ok := ast.Unparen(x.High).(*ast.BasicLit); ok && lit.Value == "0" {
			return true
		}
	}
	return false
}

// checkResetCompleteness audits a parameterless reset method on a pooled
// type: without a whole-value clear it must assign every struct field.
func checkResetCompleteness(pass *analysis.Pass, fd *ast.FuncDecl, pooled map[*types.Named]bool) {
	if fd.Recv == nil || (fd.Name.Name != "reset" && fd.Name.Name != "Reset") {
		return
	}
	if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
		return
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	rn := recvNamed(fn)
	if rn == nil || !pooled[rn] {
		return
	}
	st, ok := rn.Underlying().(*types.Struct)
	if !ok {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()

	assigned := make(map[string]bool)
	whole := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			switch x := ast.Unparen(lhs).(type) {
			case *ast.StarExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
					whole = true
				}
			case *ast.SelectorExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
					assigned[x.Sel.Name] = true
				}
			}
		}
		return true
	})
	if whole {
		return
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !assigned[f.Name()] {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(fd.Pos(), "reset leaves %s stale: a pooled %s must clear every field (or use a whole-value *%s = %s{} clear) so no state survives recycling",
			fieldList(missing), rn.Obj().Name(), recvName(fd), rn.Obj().Name())
	}
}

func fieldList(missing []string) string {
	if len(missing) == 1 {
		return "field " + missing[0]
	}
	return fmt.Sprintf("fields %s", strings.Join(missing, ", "))
}

// recvName returns the receiver identifier of a method declaration.
func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		return fd.Recv.List[0].Names[0].Name
	}
	return "x"
}
