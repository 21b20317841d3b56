// Package ctxflow guards request-path context discipline: in the packages
// that sit on a request path (service, coord, eval, sweep, flight, plus
// sim and compiler, which those call into), blocking work must remain
// cancelable, which means every context must derive from the one the
// enclosing function was handed — not be minted fresh.
//
// Three rules, the first and last purely syntactic so they still run under
// `go vet -vettool` where no whole-program graph exists:
//
//  1. A context.Background() or context.TODO() call in a covered package
//     is a finding: it severs the cancellation chain. Waive a deliberate
//     root, such as a daemon lifecycle context, with
//     `//muzzle:ctx-background <reason>` on the same line as the call. A
//     waiver without a reason is itself a finding.
//
//  2. (Interprocedural, needs the call graph.) A call to a module-local
//     function whose summary says it transitively constructs an unwaived
//     Background/TODO is a finding at the call site: the callee silently
//     discards the caller's cancellation even though the caller did
//     everything right. A waived construction stays out of the summary, so
//     callers of a waived root stay quiet too.
//
//  3. http.NewRequest in a covered package is a finding — the request
//     carries no context — with http.NewRequestWithContext as the fix.
//
// Dynamic (⊤) call sites are ignored, same trade as allocflow.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag request-path code that severs context cancellation\n\n" +
		"In request-path packages (service, coord, eval, sweep, flight, sim,\n" +
		"compiler): context.Background()/TODO() calls, calls to module-local\n" +
		"functions that transitively construct one, and ctx-less http.NewRequest\n" +
		"are findings. Waive a deliberate context root with\n" +
		"//muzzle:ctx-background <reason> on the line of its construction.",
	Run: run,
}

// coveredSuffixes are the request-path packages, matched as import-path
// suffixes so fixture trees (cfix/internal/service) trigger the rule too.
var coveredSuffixes = []string{
	"internal/service",
	"internal/coord",
	"internal/eval",
	"internal/sweep",
	"internal/flight",
	"internal/sim",
	"internal/compiler",
}

func covered(path string) bool {
	for _, s := range coveredSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// lineKey addresses a source line across the program's files.
type lineKey struct {
	file string
	line int
}

type waiver struct {
	reason string
	pos    token.Pos
}

// fileWaivers collects every //muzzle:ctx-background comment by line.
func fileWaivers(fset *token.FileSet, files []*ast.File, into map[lineKey]waiver) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if arg, ok := analysis.DirectiveComment(c, "muzzle:ctx-background"); ok {
					p := fset.Position(c.Pos())
					into[lineKey{p.Filename, p.Line}] = waiver{arg, c.Pos()}
				}
			}
		}
	}
}

// ctxConstructor returns "context.Background()" / "context.TODO()" when
// call is one, else "".
func ctxConstructor(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name() + "()"
	}
	return ""
}

// isHTTPNewRequest reports a call to net/http.NewRequest.
func isHTTPNewRequest(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "NewRequest"
}

// reachability computes (once per Program, memoized) which functions
// construct an unwaived Background/TODO, directly or through static
// module-local callees.
func reachability(prog *callgraph.Program) map[string]callgraph.Reach {
	return prog.Memo("ctxflow", func() any {
		waivers := map[lineKey]waiver{}
		for _, u := range prog.Units {
			fileWaivers(prog.Fset, u.Files, waivers)
		}
		return prog.Reachable(func(n *callgraph.Node) string {
			first := ""
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				if first != "" {
					return false
				}
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				what := ctxConstructor(n.Unit.Info, call)
				if what == "" {
					return true
				}
				p := prog.Fset.Position(call.Pos())
				if _, waived := waivers[lineKey{p.Filename, p.Line}]; !waived {
					first = what
				}
				return true
			})
			return first
		}, func(*callgraph.Node) bool { return true })
	}).(map[string]callgraph.Reach)
}

func run(pass *analysis.Pass) error {
	if !covered(pass.Pkg.Path()) {
		return nil
	}
	waivers := map[lineKey]waiver{}
	var prodFiles []*ast.File
	for _, f := range pass.Files {
		if !analysis.InTestFile(pass.Fset, f.Pos()) {
			prodFiles = append(prodFiles, f)
		}
	}
	fileWaivers(pass.Fset, prodFiles, waivers)

	waivedAt := func(pos token.Pos) (waiver, bool) {
		p := pass.Fset.Position(pos)
		w, ok := waivers[lineKey{p.Filename, p.Line}]
		return w, ok
	}

	// Reason-less waivers are findings wherever they appear.
	for _, w := range waivers {
		if w.reason == "" {
			pass.Reportf(w.pos, "muzzle:ctx-background waiver is missing a reason")
		}
	}

	var reach map[string]callgraph.Reach
	if pass.Program != nil {
		reach = reachability(pass.Program)
	}

	for _, f := range prodFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name

			// Rules 1 and 3: syntactic, graph-free.
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if what := ctxConstructor(pass.TypesInfo, call); what != "" {
					if _, waived := waivedAt(call.Pos()); !waived {
						pass.Reportf(call.Pos(), "request-path function %s constructs %s; thread the caller's context or waive with //muzzle:ctx-background <reason>", name, what)
					}
				}
				if isHTTPNewRequest(pass.TypesInfo, call) {
					if _, waived := waivedAt(call.Pos()); !waived {
						pass.Reportf(call.Pos(), "request-path function %s builds a request without a context; use http.NewRequestWithContext", name)
					}
				}
				return true
			})

			// Rule 2: interprocedural, needs the graph.
			if reach == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			n := pass.Program.Node(callgraph.FuncID(fn))
			if n == nil {
				continue
			}
			reported := map[string]bool{}
			for _, e := range n.Out {
				if !reach[e.CalleeID].Reached() || reported[e.CalleeID] {
					continue
				}
				if _, waived := waivedAt(e.Site); waived {
					continue
				}
				reported[e.CalleeID] = true
				chain, what := callgraph.Witness(reach, e.CalleeID)
				pass.Reportf(e.Site, "request-path function %s calls %s, which constructs %s and severs cancellation; pass the caller's context through or waive with //muzzle:ctx-background <reason>", name, chain, what)
			}
		}
	}
	return nil
}
