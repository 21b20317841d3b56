// Package callgraph is the interprocedural layer under the muzzle analyzer
// suite: a whole-program call graph over every package the lint driver
// loaded, one reachability fixpoint over it (Reachable: allocflow's
// may-allocate verdicts, ctxflow's constructs-background verdicts), and a
// memo surface where analyzers cache the per-function summaries they
// derive from it (those verdicts, lockorder's transitive lock sets).
//
// Resolution is static and deliberately simple — the repo has no reflection
// and no plugin loading, so four mechanisms cover almost every call:
//
//   - direct calls: f(), pkg.F()
//   - method calls through the static receiver type: x.M() where x is a
//     concrete (non-interface) type
//   - method values and function values bound to a local variable exactly
//     once: f := x.M; ...; f()  /  g := helper; g()
//   - closures: a func literal is attributed to the function that lexically
//     declares it — calls inside the literal body are edges of the
//     enclosing declaration, and calling a literal bound to a local
//     variable resolves silently (its calls are already attributed)
//
// Everything else — interface method calls, func-typed fields, reassigned
// or escaping function variables — is recorded as an unresolved dynamic
// call site (⊤) on the calling node, with its position, so analyzers can
// choose between soundness (treat ⊤ as anything) and quiet (ignore ⊤);
// each analyzer documents its choice.
//
// Cross-package identity: the loader type-checks each package from source
// against gc export data, so the same function is represented by distinct
// go/types objects in different packages. Nodes are therefore keyed by a
// stable string ID (see FuncID) — "pkg/path.Func" or "pkg/path.Type.Method"
// — not by object identity.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Unit is one type-checked package contributed to the program. All units of
// a program must share one token.FileSet.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one declared function or method with a body somewhere in the
// program. Closures declared inside it belong to it: their calls appear in
// Out/Dynamic, and their bodies are part of Decl.
type Node struct {
	// ID is the stable cross-package identity (FuncID of Func).
	ID string
	// Func is the declaring package's object for the function.
	Func *types.Func
	// Decl is the declaration carrying the body (and the doc comment
	// directives analyzers key off).
	Decl *ast.FuncDecl
	// Unit is the package the body lives in.
	Unit *Unit
	// Out lists every statically resolved call site, in source order.
	Out []Edge
	// Dynamic lists the ⊤ sites: calls through interface methods or
	// unresolvable function values, in source order.
	Dynamic []token.Pos
}

// Edge is one resolved call site.
type Edge struct {
	// CalleeID is the FuncID of the target; Program.Node resolves it to a
	// *Node when the target's body is in the program (module-local), nil
	// otherwise (standard library).
	CalleeID string
	// Callee is the caller package's view of the target object (useful for
	// package-path tests on external targets).
	Callee *types.Func
	// Site is the call position.
	Site token.Pos
}

// Program is the whole-program view: every node, plus a memo cache for
// analyzer summaries.
type Program struct {
	Fset  *token.FileSet
	Units []*Unit
	// Nodes in deterministic (declaration position) order.
	Nodes []*Node

	byID   map[string]*Node
	fileOf map[*token.File]*Unit

	memoMu sync.Mutex
	memo   map[string]any
}

// Node resolves a FuncID to its program node, or nil when the function's
// body is outside the program.
func (p *Program) Node(id string) *Node { return p.byID[id] }

// UnitAt returns the unit whose source file contains pos, or nil.
func (p *Program) UnitAt(pos token.Pos) *Unit {
	return p.fileOf[p.Fset.File(pos)]
}

// Memo returns the cached value for key, building it on first use. Each
// analyzer caches its whole-program summary table under its own key, so a
// driver running N packages pays for the fixpoint once, not N times.
func (p *Program) Memo(key string, build func() any) any {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// Reach is one function's verdict in a Reachable fixpoint.
type Reach struct {
	// What names the function's own first piece of evidence, "" if none.
	What string
	// Via is the callee the function inherited its verdict from when it
	// has no evidence of its own.
	Via string
}

// Reached reports whether the function reaches some evidence.
func (r Reach) Reached() bool { return r.What != "" || r.Via != "" }

// Reachable answers, for every function in the program, whether it reaches
// some evidence through static calls: its own, or that of a module-local
// callee whose verdict passes on. evidence names a function's own first
// piece of evidence, or returns "" when it has none; passes reports
// whether a function passes its verdict on to its callers. Dynamic (⊤)
// sites and callees outside the program contribute nothing.
func (p *Program) Reachable(evidence func(*Node) string, passes func(*Node) bool) map[string]Reach {
	reach := make(map[string]Reach, len(p.Nodes))
	passing := make(map[string]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		reach[n.ID] = Reach{What: evidence(n)}
		passing[n.ID] = passes(n)
	}
	// Monotone fixpoint; iterate to handle cycles and arbitrary node order.
	// Real call chains are shallow, so this converges in a few rounds.
	for changed := true; changed; {
		changed = false
		for _, n := range p.Nodes {
			if reach[n.ID].Reached() {
				continue
			}
			for _, e := range n.Out {
				if passing[e.CalleeID] && reach[e.CalleeID].Reached() {
					reach[n.ID] = Reach{Via: e.CalleeID}
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// Witness renders the call chain from id down to the function with the
// evidence, "helper.Chain → helper.BuildIndex", and that evidence. The
// chain ends: a function only inherits a verdict its callee already had.
func Witness(reach map[string]Reach, id string) (chain, what string) {
	var names []string
	for {
		names = append(names, DisplayName(id))
		r := reach[id]
		if r.Via == "" {
			return strings.Join(names, " → "), r.What
		}
		id = r.Via
	}
}

// DisplayName trims the import path directory from a FuncID or lock key:
// "muzzle/internal/topo.Graph.Path" → "topo.Graph.Path".
func DisplayName(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

// FuncID is the stable cross-package identity of a function object:
// "pkg/path.Func" for package functions, "pkg/path.Type.Method" for
// methods (pointer receivers are not distinguished from value receivers —
// a method has one body either way). Generic instantiations collapse onto
// their origin. The empty string marks objects with no usable identity
// (universe-scope error.Error).
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		// Receiver without a named type (interface literal method): no
		// stable identity; these only appear as dynamic targets anyway.
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Build constructs the program graph over units. Units must share fset.
func Build(fset *token.FileSet, units []*Unit) *Program {
	p := &Program{
		Fset:   fset,
		Units:  units,
		byID:   make(map[string]*Node),
		fileOf: make(map[*token.File]*Unit),
		memo:   make(map[string]any),
	}
	for _, u := range units {
		for _, f := range u.Files {
			if tf := fset.File(f.Pos()); tf != nil {
				p.fileOf[tf] = u
			}
		}
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				id := FuncID(fn)
				if id == "" {
					continue
				}
				n := &Node{ID: id, Func: fn, Decl: fd, Unit: u}
				resolveCalls(u, n)
				// Test variants re-check production files, so the same ID
				// can be seen twice across units (external test packages
				// importing the plain package do not — the loader
				// supersedes subsumed variants — but belt and braces:
				// first declaration wins, deterministically).
				if _, dup := p.byID[id]; !dup {
					p.byID[id] = n
					p.Nodes = append(p.Nodes, n)
				}
			}
		}
	}
	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].Decl.Pos() < p.Nodes[j].Decl.Pos() })
	return p
}

// binding is a local variable bound exactly once to a callable.
type binding struct {
	target *types.Func // method value or function value target
	lit    *ast.FuncLit
	dead   bool // reassigned: resolution would be unsound
}

// resolveCalls walks fd's body (closures included) classifying every call.
func resolveCalls(u *Unit, n *Node) {
	binds := collectBindings(u, n.Decl)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		classifyCall(u, n, binds, call)
		return true
	})
}

// collectBindings finds `v := <callable>` single-assignment locals in fd:
// func literals, method values (x.M without call), and plain function
// values. A second assignment to the same object kills the binding.
func collectBindings(u *Unit, fd *ast.FuncDecl) map[types.Object]*binding {
	binds := map[types.Object]*binding{}
	record := func(lhs ast.Expr, rhs ast.Expr, define bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		var obj types.Object
		if define {
			obj = u.Info.Defs[id]
		} else {
			obj = u.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if b, seen := binds[obj]; seen {
			b.dead = true // reassigned
			return
		}
		if !define {
			// First sighting is a plain assignment to a variable declared
			// elsewhere (e.g. a named result or an outer var): treat as
			// unresolvable rather than guess.
			binds[obj] = &binding{dead: true}
			return
		}
		b := &binding{}
		switch v := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			b.lit = v
		default:
			if fn := staticFuncValue(u, rhs); fn != nil {
				b.target = fn
			} else {
				b.dead = true
			}
		}
		binds[obj] = b
	}
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i], s.Tok == token.DEFINE)
				}
			} else {
				// Multi-value unpacking of function values is not a repo
				// idiom; kill any bound lhs.
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						if obj := u.Info.Defs[id]; obj != nil {
							binds[obj] = &binding{dead: true}
						} else if obj := u.Info.Uses[id]; obj != nil {
							if b := binds[obj]; b != nil {
								b.dead = true
							} else {
								binds[obj] = &binding{dead: true}
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					record(name, s.Values[i], true)
				}
			}
		}
		return true
	})
	return binds
}

// staticFuncValue resolves an expression used as a value to the function it
// denotes: a plain function identifier, a qualified pkg.F, or a method
// value x.M on a concrete receiver. Interface method values return nil —
// the target depends on the dynamic type.
func staticFuncValue(u *Unit, e ast.Expr) *types.Func {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := u.Info.Uses[v].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[v]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil // field value: dynamic
		}
		// No selection entry: qualified identifier pkg.F.
		fn, _ := u.Info.Uses[v.Sel].(*types.Func)
		return fn
	}
	return nil
}

// classifyCall records call as a resolved edge, a silent resolution (a
// literal whose body is already attributed to n), a ⊤ dynamic site, or a
// non-call (conversion, builtin).
func classifyCall(u *Unit, n *Node, binds map[types.Object]*binding, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) — unwrap to the function expression.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := u.Info.Types[idx.X]; ok && tv.IsValue() {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	// Conversions are not calls.
	if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch f := fun.(type) {
	case *ast.FuncLit:
		return // body attributed to n already
	case *ast.Ident:
		switch obj := u.Info.Uses[f].(type) {
		case *types.Builtin, *types.TypeName, nil:
			return
		case *types.Func:
			n.addEdge(obj, call.Lparen)
			return
		case *types.Var:
			if b := binds[obj]; b != nil && !b.dead {
				if b.lit != nil {
					return // closure: already attributed
				}
				if b.target != nil {
					n.addEdge(b.target, call.Lparen)
					return
				}
			}
			n.Dynamic = append(n.Dynamic, call.Lparen)
			return
		default:
			n.Dynamic = append(n.Dynamic, call.Lparen)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if types.IsInterface(sel.Recv()) {
					n.Dynamic = append(n.Dynamic, call.Lparen) // ⊤: interface dispatch
					return
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					n.addEdge(fn, call.Lparen)
					return
				}
			case types.FieldVal:
				n.Dynamic = append(n.Dynamic, call.Lparen) // func-typed field
				return
			}
			n.Dynamic = append(n.Dynamic, call.Lparen)
			return
		}
		// Qualified identifier pkg.F.
		switch obj := u.Info.Uses[f.Sel].(type) {
		case *types.Func:
			n.addEdge(obj, call.Lparen)
		case *types.Builtin, *types.TypeName, nil:
			// unsafe.* and conversions: not calls.
		default:
			n.Dynamic = append(n.Dynamic, call.Lparen) // package-level func var
		}
		return
	default:
		// Calling the result of a call, an index expression, etc.
		n.Dynamic = append(n.Dynamic, call.Lparen)
	}
}

func (n *Node) addEdge(fn *types.Func, site token.Pos) {
	id := FuncID(fn)
	if id == "" {
		n.Dynamic = append(n.Dynamic, site)
		return
	}
	n.Out = append(n.Out, Edge{CalleeID: id, Callee: fn, Site: site})
}
