package allocflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"muzzle/internal/lint/analysis"
)

// scan walks fd's body and calls emit once per allocating construct with a
// phrase describing it ("allocates a map literal", "calls fmt.Sprintf
// outside a return statement", ...). Rule 1 reports every hit in a
// //muzzle:hotpath function; the reachability summaries take the first hit
// of every function as its may-allocate evidence. The constructs:
//
//   - map and slice composite literals
//   - make(map) / make(chan) — make([]T, n) stays legal because the whole
//     arena pattern is built on sized slice allocation
//   - function literals that capture enclosing variables (escape to heap)
//   - fmt calls, except inside a return statement: cold error exits may
//     format, the loop body may not
//   - explicit conversions of concrete values to interface types
//   - append to a bare `var x []T` inside a loop (unbounded growth;
//     append to a make()-sized or arena-backed slice is fine)
func scan(info *types.Info, fd *ast.FuncDecl, emit func(pos token.Pos, what string)) {
	bareSlices := collectBareSlices(info, fd)

	analysis.WalkStack(fd, func(n ast.Node, stack []ast.Node) bool {
		if n == fd {
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				emit(n.Pos(), "allocates a map literal")
			case *types.Slice:
				emit(n.Pos(), "allocates a slice literal")
			}
		case *ast.FuncLit:
			if capturesLocal(info, fd, n) {
				emit(n.Pos(), "creates a closure capturing local variables (heap escape)")
			}
			// Report once per literal, but still scan its body for the
			// other constructs.
			return true
		case *ast.CallExpr:
			scanCall(info, n, stack, bareSlices, emit)
		}
		return true
	})
}

func scanCall(info *types.Info, call *ast.CallExpr, stack []ast.Node, bareSlices map[types.Object]bool, emit func(token.Pos, string)) {
	// make(map[...]..., ...) / make(chan ...): sized slices stay legal.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				switch info.Types[call].Type.Underlying().(type) {
				case *types.Map:
					emit(call.Pos(), "allocates with make(map)")
				case *types.Chan:
					emit(call.Pos(), "allocates with make(chan)")
				}
			case "append":
				if len(call.Args) > 0 && inLoop(stack) {
					if base, ok := call.Args[0].(*ast.Ident); ok && bareSlices[info.Uses[base]] {
						emit(call.Pos(), "grows unsized slice "+base.Name+" with append inside a loop")
					}
				}
			}
			return
		}
	}

	// fmt.* calls outside return statements.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			if !inReturn(stack) {
				emit(call.Pos(), "calls fmt."+sel.Sel.Name+" outside a return statement")
			}
			return
		}
	}

	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if argT := info.Types[call.Args[0]].Type; argT != nil && !types.IsInterface(argT) {
				if b, ok := argT.Underlying().(*types.Basic); !ok || b.Kind() != types.UntypedNil {
					emit(call.Pos(), "converts "+argT.String()+" to interface "+tv.Type.String()+" (boxes on the heap)")
				}
			}
		}
	}
}

// collectBareSlices returns the objects of `var x []T` declarations (no
// initializer) in fd — append targets that grow without bound.
func collectBareSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	bare := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, id := range vs.Names {
				if obj := info.Defs[id]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Slice); ok {
						bare[obj] = true
					}
				}
			}
		}
		return true
	})
	return bare
}

// capturesLocal reports whether lit references a variable declared in fd
// outside lit itself (a capture, which forces the closure and captured
// vars to the heap).
func capturesLocal(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside fd but outside lit: a capture. Receiver and
		// parameters of fd count too — they pin the closure just the same.
		if within(fd, v.Pos()) && !within(lit, v.Pos()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}

func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

func inReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

func within(outer ast.Node, pos token.Pos) bool {
	return outer.Pos() <= pos && pos <= outer.End()
}
