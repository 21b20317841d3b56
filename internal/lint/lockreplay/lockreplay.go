// Package lockreplay is the lock-state engine under guardedby and
// lockorder: it walks one function body in source order and tracks which
// mutexes are held at each point.
//
// The model is structural, not a CFG. Sequential statements mutate the
// held set; the bodies of if/else, for, range, and every switch, type
// switch and select clause replay against a copy, so an unlock inside one
// branch never leaks into its sibling or past the statement. A deferred
// call runs at return, after every statement, and a go statement's call
// runs on another goroutine, so neither is a lock operation here; their
// function value and arguments are evaluated where the statement stands
// and replay like any other expression. A closure replays its own body
// with nothing held: it may run later or elsewhere, so it must lock for
// itself.
//
// Clients decide what a lock is through Walk's lock function — guardedby
// keys a mutex by its instance ("c.mu"), lockorder by its declaring type
// ("pkg.Struct.field") — and observe the held set through its visit
// function.
package lockreplay

import (
	"go/ast"
	"go/token"
	"maps"
)

// Op is what a call does to a lock.
type Op int

const (
	None Op = iota
	Acquire
	Release
)

// Held maps each held lock's key to the position of the call that took it.
type Held map[string]token.Pos

// Walk replays body from a state with nothing held. lock classifies a
// call: Acquire or Release of the lock named key, or None for any other
// call. visit receives every expression node the body evaluates, in
// source order, with the locks held where it is evaluated. A call is
// visited before its own lock operation applies, so an acquisition sees
// the locks already held. The deferred call of a go or defer statement is
// not visited: it does not run where it stands. visit must neither keep
// nor modify held.
func Walk(body *ast.BlockStmt, lock func(call *ast.CallExpr) (key string, op Op), visit func(n ast.Node, held Held)) {
	w := &walker{lock: lock, visit: visit}
	w.stmts(body.List, Held{})
}

type walker struct {
	lock  func(*ast.CallExpr) (string, Op)
	visit func(ast.Node, Held)
}

func (w *walker) stmts(list []ast.Stmt, held Held) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held Held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		w.exprs(s.Rhs, held)
		w.exprs(s.Lhs, held)
	case *ast.ReturnStmt:
		w.exprs(s.Results, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		if s.Else != nil {
			w.stmt(s.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		inner := maps.Clone(held)
		w.stmt(s.Init, inner)
		w.expr(s.Cond, inner)
		w.stmts(s.Body.List, inner)
		w.stmt(s.Post, inner)
	case *ast.RangeStmt:
		w.expr(s.Key, held)
		w.expr(s.Value, held)
		w.expr(s.X, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.expr(s.Tag, held)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		w.clauses(s.Body, held)
	case *ast.GoStmt:
		w.deferred(s.Call, held)
	case *ast.DeferStmt:
		w.deferred(s.Call, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, held)
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	}
}

// clauses replays each case or comm clause of a switch or select body
// against its own copy of held: exactly one clause runs.
func (w *walker) clauses(body *ast.BlockStmt, held Held) {
	for _, c := range body.List {
		inner := maps.Clone(held)
		switch c := c.(type) {
		case *ast.CaseClause:
			w.exprs(c.List, inner)
			w.stmts(c.Body, inner)
		case *ast.CommClause:
			w.stmt(c.Comm, inner)
			w.stmts(c.Body, inner)
		}
	}
}

// deferred replays the operands of a go or defer statement's call, which
// are evaluated where the statement stands; the call itself runs later.
func (w *walker) deferred(call *ast.CallExpr, held Held) {
	w.expr(call.Fun, held)
	w.exprs(call.Args, held)
}

func (w *walker) exprs(list []ast.Expr, held Held) {
	for _, e := range list {
		w.expr(e, held)
	}
}

// expr visits e's nodes in source order. A call's lock operation applies
// after its function value and arguments are evaluated.
func (w *walker) expr(e ast.Expr, held Held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		w.visit(n, held)
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, Held{})
			return false
		case *ast.CallExpr:
			w.expr(n.Fun, held)
			w.exprs(n.Args, held)
			switch key, op := w.lock(n); op {
			case Acquire:
				if _, already := held[key]; !already {
					held[key] = n.Lparen
				}
			case Release:
				delete(held, key)
			}
			return false
		}
		return true
	})
}
