// Package allocflow guards the allocation-free compile loop. Functions
// annotated //muzzle:hotpath — the engine's routing loop, future-index
// maintenance, DAG/arena builders, topo.Path — were hand-tuned to zero
// amortized heap allocations, and that property erodes one innocent diff
// at a time. Two rules hold it:
//
//  1. A hotpath function's own body contains no allocating construct (see
//     scan for the list).
//
//  2. A hotpath function does not call a function that may allocate. The
//     same construct scanner runs over every function in the program, and
//     may-allocate verdicts propagate bottom-up over the call graph
//     (callgraph.Reachable); each call site in a hotpath function whose
//     callee may allocate is a finding, with the allocation chain in the
//     message.
//
// Rule 1 needs no call graph. Under `go vet -vettool` the graph holds one
// package, so rule 2 sees only same-package callees there.
//
// Soundness boundary of rule 2, stated plainly:
//
//   - dynamic call sites (interface dispatch, func-typed fields, escaped
//     function variables — the call graph's ⊤) are ignored; the repo's hot
//     loops are direct-call by construction and a ⊤-is-anything rule would
//     drown the signal
//   - callees outside the program (standard library) are ignored; the
//     scanner already flags the one stdlib surface that matters (fmt)
//   - callees themselves annotated //muzzle:hotpath are trusted clean —
//     rule 1 checks their bodies directly, so re-deriving their verdict
//     here would only double-report
//
// A cold-path helper that legitimately allocates may be waived with
// `//muzzle:allocok <reason>` in its doc comment; the waiver stops its
// verdict from reaching its callers, so they stay quiet. A waiver without
// a reason is a finding, and so is a stale waiver on a function that no
// longer allocates.
//
// The benchmarks in internal/compiler and the allocation budgets remain
// the ground truth for allocs/op; this analyzer is the cheap always-on
// tripwire in front of them.
package allocflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "allocflow",
	Doc: "flag allocations in and below //muzzle:hotpath functions\n\n" +
		"Rule 1 rejects allocating constructs in a hotpath function's own body:\n" +
		"map/slice literals, capturing closures, non-return fmt calls, interface\n" +
		"conversions, make(map|chan), and unbounded append in loops. Rule 2 flags\n" +
		"calls from a hotpath function to functions that may allocate: per-function\n" +
		"verdicts from the same scanner propagate bottom-up over the whole-program\n" +
		"call graph, and the finding carries the allocation chain. Waive a\n" +
		"deliberate cold-path allocation with //muzzle:allocok <reason>.",
	Run: run,
}

// passes reports whether a function's may-allocate verdict reaches its
// callers: a //muzzle:allocok waiver stops it deliberately, and a hotpath
// callee is trusted clean because rule 1 checks its body.
func passes(n *callgraph.Node) bool {
	return !analysis.HasDirective(n.Decl.Doc, "muzzle:hotpath") &&
		!analysis.HasDirective(n.Decl.Doc, "muzzle:allocok")
}

// reachability computes (once per Program, memoized) which functions may
// allocate, directly or through static module-local callees, before
// waivers on the function itself apply.
func reachability(prog *callgraph.Program) map[string]callgraph.Reach {
	return prog.Memo("allocflow", func() any {
		return prog.Reachable(func(n *callgraph.Node) string {
			first := ""
			scan(n.Unit.Info, n.Decl, func(_ token.Pos, what string) {
				if first == "" {
					first = what
				}
			})
			return first
		}, passes)
	}).(map[string]callgraph.Reach)
}

func run(pass *analysis.Pass) error {
	prog := pass.Program
	var reach map[string]callgraph.Reach
	if prog != nil {
		reach = reachability(prog)
	}
	for _, f := range pass.Files {
		if analysis.InTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			hot := analysis.HasDirective(fd.Doc, "muzzle:hotpath")
			if hot {
				scan(pass.TypesInfo, fd, func(pos token.Pos, what string) {
					pass.Reportf(pos, "hotpath function %s %s", name, what)
				})
			}
			if reach == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			n := prog.Node(callgraph.FuncID(fn))
			if n == nil {
				continue
			}
			if reason, waived := analysis.Directive(fd.Doc, "muzzle:allocok"); waived {
				if reason == "" {
					pass.Reportf(fd.Pos(), "muzzle:allocok waiver on %s is missing a reason", name)
				}
				if !reach[n.ID].Reached() {
					pass.Reportf(fd.Pos(), "stale muzzle:allocok waiver on %s: it no longer allocates, directly or transitively", name)
				}
			}
			if !hot {
				continue
			}
			reported := map[string]bool{}
			for _, e := range n.Out {
				c := prog.Node(e.CalleeID)
				if c == nil || !passes(c) || !reach[c.ID].Reached() || reported[c.ID] {
					continue
				}
				reported[c.ID] = true
				chain, what := callgraph.Witness(reach, c.ID)
				pass.Reportf(e.Site, "hotpath function %s calls %s, which %s", name, chain, what)
			}
		}
	}
	return nil
}
