// Package lockorder lifts guardedby's structural Lock/Unlock replay from
// one function body to the whole program: every place mutex A is held
// while mutex B is acquired — directly, or through a call whose callee
// transitively acquires B — adds the edge A→B to a global lock-order
// graph, and any cycle in that graph is a potential deadlock, reported
// once with the acquisition sites that close it.
//
// Mutex identity is structural, not per-instance: a mutex field is
// "pkg/path.Struct.field", a package-level mutex var is "pkg/path.var",
// and a type with an embedded sync.Mutex locked through method calls is
// "pkg/path.Type". Two instances of the same struct therefore share a key
// — exactly the approximation that catches AB/BA deadlocks between
// instances, at the cost of flagging the (rare, and here absent) ordered
// self-lock idiom. Local mutex variables have no stable identity and are
// skipped.
//
// Locks replay with guardedby's walker (internal/lint/lockreplay), so a
// `go`/`defer` call adds no edge and a closure starts with nothing held.
// Callee lock summaries (the set of keys a function transitively acquires,
// closures excluded — a closure's acquires usually happen on another
// goroutine) come from a fixpoint over the call graph; dynamic (⊤) sites
// contribute nothing, same trade as allocflow and ctxflow.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/callgraph"
	"muzzle/internal/lint/lockreplay"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "report lock-order cycles (potential deadlocks) across the whole program\n\n" +
		"Replays Lock/Unlock structurally in every function; mutex A held while\n" +
		"acquiring mutex B — directly or through a call chain — adds edge A→B to a\n" +
		"global graph. A cycle is reported once, at its earliest closing edge, with\n" +
		"both acquisition sites.",
	Run: run,
}

// edge is one observed ordering: from held while to acquired.
type edge struct {
	from, to string
	fromSite token.Pos // where `from` was acquired
	toSite   token.Pos // where `to` was acquired (or the call that leads there)
	via      string    // callee FuncID when the acquisition is interprocedural
}

// cycleReport is one strongly connected component of the order graph.
type cycleReport struct {
	anchor token.Pos
	msg    string
}

func run(pass *analysis.Pass) error {
	prog := pass.Program
	if prog == nil {
		return nil
	}
	cycles := prog.Memo("lockorder", func() any { return analyze(prog) }).([]cycleReport)
	for _, c := range cycles {
		// The pass owning the anchor position reports; everyone else stays
		// quiet so a whole-program cycle shows up exactly once.
		if u := prog.UnitAt(c.anchor); u != nil && u.Pkg.Path() == pass.Pkg.Path() {
			pass.Reportf(c.anchor, "%s", c.msg)
		}
	}
	return nil
}

func analyze(prog *callgraph.Program) []cycleReport {
	trans := lockSummaries(prog)
	edges := map[[2]string]edge{}
	addEdge := func(e edge) {
		k := [2]string{e.from, e.to}
		if _, seen := edges[k]; !seen {
			edges[k] = e
		}
	}
	for _, n := range prog.Nodes {
		if analysis.InTestFile(prog.Fset, n.Decl.Pos()) {
			continue
		}
		sites := map[token.Pos]string{} // call site → callee FuncID
		for _, e := range n.Out {
			sites[e.Site] = e.CalleeID
		}
		lock := func(call *ast.CallExpr) (string, lockreplay.Op) { return lockCall(n.Unit, call) }
		lockreplay.Walk(n.Decl.Body, lock, func(node ast.Node, held lockreplay.Held) {
			call, isCall := node.(*ast.CallExpr)
			if !isCall || len(held) == 0 {
				return
			}
			if key, op := lock(call); op != lockreplay.None {
				if op == lockreplay.Acquire {
					for h, hs := range held {
						if h != key {
							addEdge(edge{from: h, to: key, fromSite: hs, toSite: call.Lparen})
						}
					}
				}
				return
			}
			calleeID, resolved := sites[call.Lparen]
			if !resolved {
				return
			}
			for l := range trans[calleeID] {
				for h, hs := range held {
					if h != l {
						addEdge(edge{from: h, to: l, fromSite: hs, toSite: call.Lparen, via: calleeID})
					}
				}
			}
		})
	}
	return cycles(prog.Fset, edges)
}

// lockSummaries computes, per function, the set of mutex keys it
// transitively acquires (closures excluded), with one example site each.
func lockSummaries(prog *callgraph.Program) map[string]map[string]token.Pos {
	trans := make(map[string]map[string]token.Pos, len(prog.Nodes))
	for _, n := range prog.Nodes {
		acq := map[string]token.Pos{}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if key, op := lockCall(n.Unit, call); op == lockreplay.Acquire {
					if _, seen := acq[key]; !seen {
						acq[key] = call.Lparen
					}
				}
			}
			return true
		})
		trans[n.ID] = acq
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			mine := trans[n.ID]
			for _, e := range n.Out {
				for key, site := range trans[e.CalleeID] {
					if _, seen := mine[key]; !seen {
						mine[key] = site
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// lockCall classifies call as an acquire or release of a stably
// identified mutex. Non-lock calls and locks with no stable identity
// (local mutex variables) are lockreplay.None.
func lockCall(u *callgraph.Unit, call *ast.CallExpr) (string, lockreplay.Op) {
	method, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", lockreplay.None
	}
	fn, isFn := u.Info.Uses[method.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockreplay.None
	}
	var op lockreplay.Op
	switch fn.Name() {
	case "Lock", "RLock":
		op = lockreplay.Acquire
	case "Unlock", "RUnlock":
		op = lockreplay.Release
	default:
		return "", lockreplay.None
	}
	key := mutexKey(u, method.X)
	if key == "" {
		return "", lockreplay.None
	}
	return key, op
}

// mutexKey derives the structural identity of the mutex expression e, or
// "" when none exists.
func mutexKey(u *callgraph.Unit, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, isField := u.Info.Selections[x]; isField && sel.Kind() == types.FieldVal {
			// m.mu.Lock(): key the field on its declaring struct.
			if named := analysis.Named(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
			}
			return ""
		}
		// pkg.Mu.Lock(): qualified package-level var.
		if v, isVar := u.Info.Uses[x.Sel].(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.Ident:
		v, isVar := u.Info.Uses[x].(*types.Var)
		if !isVar {
			return ""
		}
		// A receiver or local whose type embeds sync.Mutex: lock identity is
		// the type itself (s.Lock() on *Store → "pkg.Store").
		if named := analysis.Named(v.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
		// Package-level mutex var.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return "" // local sync.Mutex: no stable identity
	default:
		if named := analysis.Named(u.Info.Types[ast.Unparen(e)].Type); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
		return ""
	}
}

// cycles finds the strongly connected components of the order graph and
// renders one report per non-trivial component.
func cycles(fset *token.FileSet, edges map[[2]string]edge) []cycleReport {
	adj := map[string][]string{}
	var keys []string
	seen := map[string]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		for _, n := range []string{k[0], k[1]} {
			if !seen[n] {
				seen[n] = true
				keys = append(keys, n)
			}
		}
	}
	sort.Strings(keys)
	for _, n := range keys {
		sort.Strings(adj[n])
	}

	// Tarjan SCC, recursive — lock graphs here have a handful of nodes.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				comps = append(comps, comp)
			}
		}
	}
	for _, n := range keys {
		if _, visited := index[n]; !visited {
			strong(n)
		}
	}

	var reports []cycleReport
	for _, comp := range comps {
		in := map[string]bool{}
		for _, n := range comp {
			in[n] = true
		}
		var cedges []edge
		for k, e := range edges {
			if in[k[0]] && in[k[1]] {
				cedges = append(cedges, e)
			}
		}
		sort.Slice(cedges, func(i, j int) bool {
			if cedges[i].from != cedges[j].from {
				return cedges[i].from < cedges[j].from
			}
			return cedges[i].to < cedges[j].to
		})
		anchor := cedges[0].toSite
		for _, e := range cedges {
			if e.toSite < anchor {
				anchor = e.toSite
			}
		}
		parts := make([]string, len(cedges))
		for i, e := range cedges {
			via := ""
			if e.via != "" {
				via = " via " + callgraph.DisplayName(e.via)
			}
			parts[i] = fmt.Sprintf("%s (held since %s) → %s acquired at %s%s",
				callgraph.DisplayName(e.from), shortPos(fset, e.fromSite),
				callgraph.DisplayName(e.to), shortPos(fset, e.toSite), via)
		}
		sort.Strings(comp)
		reports = append(reports, cycleReport{
			anchor: anchor,
			msg: fmt.Sprintf("potential deadlock: lock order cycle among %s: %s",
				strings.Join(mapNames(comp), ", "), strings.Join(parts, "; ")),
		})
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].anchor < reports[j].anchor })
	return reports
}

func mapNames(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = callgraph.DisplayName(k)
	}
	return out
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
