// Package guardedby checks the repo's lock discipline: a struct field
// whose declaration carries a "// guarded by <mu>" comment may only be
// accessed where the matching mutex is held. The service scheduler, flight
// group, store journal, cache, and coordinator pool all centralize state
// behind one mutex per struct; this analyzer turns that convention into a
// build error instead of a race-detector roulette.
//
// Holding the lock is established by structural replay with the walker
// lockorder shares (internal/lint/lockreplay): `recv.mu.Lock()` /
// `Unlock()` (and RLock/RUnlock) update the held set in source order. That
// models the repo's real patterns — lock/branch/unlock switches,
// lock-unlock-relock sequences, per-case unlocks — without needing a full
// CFG. A lock is keyed by its instance, "recv.mu", so holding one value's
// mutex never guards another value's fields.
//
// Functions exempt from replay:
//
//   - name ends in "Locked" — caller-holds-lock convention
//     (emitLocked, insertLocked, compactLocked, ...)
//   - doc carries //muzzle:locked — same convention, for names where the
//     suffix reads badly
//   - doc carries //muzzle:nolock <why> — the object is provably
//     unshared, e.g. recovery/startup before any goroutine exists
//   - the function builds the struct with a composite literal — a
//     constructor initializing fields before the value escapes
//
// Test files are skipped. An annotation naming a mutex field the struct
// does not declare is itself an error.
package guardedby

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/lockreplay"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "check that fields commented \"guarded by <mu>\" are only accessed under that mutex\n\n" +
		"Exemptions: functions named *Locked, //muzzle:locked, //muzzle:nolock <why>,\n" +
		"and constructors (any function containing a composite literal of the struct).",
	Run: run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// guardKey identifies one guarded field.
type guardKey struct {
	strct *types.TypeName
	field string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
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
			checkFunc(pass, fd, guards)
		}
	}
	return nil
}

// collectGuards finds every "guarded by <mu>" field annotation in the
// package's struct declarations and validates that the named mutex exists
// as a sibling field.
func collectGuards(pass *analysis.Pass) map[guardKey]string {
	guards := map[guardKey]string{}
	for _, f := range pass.Files {
		if analysis.InTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if obj == nil {
				return true
			}
			fieldNames := map[string]bool{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu := guardName(fld)
				if mu == "" {
					continue
				}
				if !fieldNames[mu] {
					pass.Reportf(fld.Pos(), "field is guarded by %s, but struct %s has no field %s", mu, obj.Name(), mu)
					continue
				}
				for _, name := range fld.Names {
					guards[guardKey{obj, name.Name}] = mu
				}
			}
			return true
		})
	}
	return guards
}

// guardName extracts the mutex name from a field's doc or trailing line
// comment, or "".
func guardName(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[guardKey]string) {
	if strings.HasSuffix(fd.Name.Name, "Locked") ||
		analysis.HasDirective(fd.Doc, "muzzle:locked") ||
		analysis.HasDirective(fd.Doc, "muzzle:nolock") {
		return
	}
	var constructed map[*types.TypeName]bool
	lockreplay.Walk(fd.Body, func(call *ast.CallExpr) (string, lockreplay.Op) {
		return lockOf(pass, call)
	}, func(n ast.Node, held lockreplay.Held) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		sn, ok := pass.TypesInfo.Selections[sel]
		if !ok || sn.Kind() != types.FieldVal {
			return
		}
		named := analysis.Named(sn.Recv())
		if named == nil {
			return
		}
		mu, guarded := guards[guardKey{named.Obj(), sn.Obj().Name()}]
		if !guarded {
			return
		}
		if constructed == nil {
			constructed = constructedTypes(pass, fd)
		}
		if constructed[named.Obj()] {
			return
		}
		base := analysis.ExprText(pass.Fset, sel.X)
		if _, locked := held[base+"."+mu]; base == "" || locked {
			return
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s but accessed without holding %s.%s",
			named.Obj().Name(), sn.Obj().Name(), mu, base, mu)
	})
}

// constructedTypes returns the guarded struct types that fd instantiates
// with a composite literal — the constructor exemption: New-style
// functions initialize fields before the value is shared.
func constructedTypes(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if named := analysis.Named(pass.TypesInfo.Types[cl].Type); named != nil {
			out[named.Obj()] = true
		}
		return true
	})
	return out
}

// lockOf classifies base.mu.Lock/RLock (acquire) and base.mu.Unlock/RUnlock
// (release) under the instance key "base.mu", so holding one value's
// mutex never guards another value's fields.
func lockOf(pass *analysis.Pass, call *ast.CallExpr) (string, lockreplay.Op) {
	method, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", lockreplay.None
	}
	muSel, ok := method.X.(*ast.SelectorExpr)
	if !ok {
		return "", lockreplay.None
	}
	var op lockreplay.Op
	switch method.Sel.Name {
	case "Lock", "RLock":
		op = lockreplay.Acquire
	case "Unlock", "RUnlock":
		op = lockreplay.Release
	default:
		return "", lockreplay.None
	}
	return analysis.ExprText(pass.Fset, muSel.X) + "." + muSel.Sel.Name, op
}
