// Package httperr keeps the service's error contract structured. Every
// handler error goes to clients as {"code": ..., "error": ...} via the
// writeError helper in internal/service; a naked http.Error emits
// text/plain, which API clients (and the coordinator's worker client)
// cannot dispatch on. The analyzer flags every call to net/http.Error in
// non-test code, and when the package declares a writeError helper it
// attaches the mechanical rewrite as a suggested fix.
package httperr

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"muzzle/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "httperr",
	Doc: "flag naked http.Error calls in service code\n\n" +
		"Handlers must respond with the structured {\"code\": ...} JSON error shape\n" +
		"via the package's writeError helper so clients can dispatch on the code.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	hasHelper := packageHasWriteError(pass)
	importsErrors := false
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"errors"` {
				importsErrors = true
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.InTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Name() != "Error" || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
				return true
			}
			d := analysis.Diagnostic{
				Pos:     call.Pos(),
				End:     call.End(),
				Message: "naked http.Error sends text/plain; respond with the structured JSON error helper (writeError) instead",
			}
			if hasHelper && len(call.Args) == 3 {
				if fix := suggestRewrite(pass, call, importsErrors); fix != nil {
					d.SuggestedFixes = []analysis.SuggestedFix{*fix}
				}
			}
			pass.Report(d)
			return true
		})
	}
	return nil
}

// packageHasWriteError reports whether the package declares
// writeError(w, status, code, err) — the rewrite target.
func packageHasWriteError(pass *analysis.Pass) bool {
	obj := pass.Pkg.Scope().Lookup("writeError")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 4
}

// suggestRewrite turns http.Error(w, msg, status) into
// writeError(w, status, "internal", err):
//
//   - msg spelled x.Error() reuses x directly as the error
//   - otherwise the message is wrapped in errors.New, but only when the
//     file set already imports "errors" (a fix must not edit imports)
func suggestRewrite(pass *analysis.Pass, call *ast.CallExpr, importsErrors bool) *analysis.SuggestedFix {
	w := analysis.ExprText(pass.Fset, call.Args[0])
	msg := call.Args[1]
	status := analysis.ExprText(pass.Fset, call.Args[2])

	var errExpr string
	if inner, ok := errorCallReceiver(pass, msg); ok {
		errExpr = inner
	} else if importsErrors {
		errExpr = "errors.New(" + analysis.ExprText(pass.Fset, msg) + ")"
	} else {
		return nil
	}
	text := fmt.Sprintf("writeError(%s, %s, %q, %s)", w, status, "internal", errExpr)
	return &analysis.SuggestedFix{
		Message:   "replace with structured writeError",
		TextEdits: []analysis.TextEdit{{Pos: call.Pos(), End: call.End(), NewText: []byte(text)}},
	}
}

// errorCallReceiver matches the expression `x.Error()` where x is an
// error, returning x's source text.
func errorCallReceiver(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return "", false
	}
	if t := pass.TypesInfo.Types[sel.X].Type; t == nil || !isError(t) {
		return "", false
	}
	return analysis.ExprText(pass.Fset, sel.X), true
}

func isError(t types.Type) bool {
	return strings.TrimPrefix(t.String(), "*") == "error" || types.Implements(t, errorIface())
}

func errorIface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}
