// Package cachekey enforces the repo's cache-identity invariant: every
// exported field of every struct that internal/ckey hashes must itself be
// written into the hash. The PR 4 incident — Gate.Cbit added without a
// hash write, serving stale measure results until the key was bumped to
// v2 — is exactly the class of bug this turns into a lint failure.
//
// The analyzer activates only on the package whose import path ends in
// "internal/ckey". It discovers the hashed struct types syntactically:
// any module-local named struct type that ckey reads a field from is
// considered part of the key's identity, and from then on *all* of its
// exported fields must either be selected somewhere in ckey or carry an
// explicit waiver comment anywhere in the package:
//
//	//ckey:ignore circuit.Gate.Label display only, does not affect results
//
// A waiver for a field that is in fact hashed (or does not exist) is
// itself reported, so stale waivers cannot linger after a refactor.
package cachekey

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"muzzle/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "check that every exported field of structs hashed by internal/ckey is written into the hash\n\n" +
		"Fields that genuinely do not affect evaluation results are waived with\n" +
		"//ckey:ignore pkg.Type.Field <reason>. Adding a hashed field changes the\n" +
		"canonical encoding, so the fix suggestion reminds you to bump ckey.Version.",
	Run: run,
}

// hashedType is one struct type the key encoder reads.
type hashedType struct {
	obj      *types.TypeName
	selected map[string]bool // exported field names written into the hash
	lastSel  *ast.SelectorExpr
	lastStmt ast.Stmt // statement enclosing lastSel, insertion anchor for fixes
}

func run(pass *analysis.Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/ckey") {
		return nil
	}
	modRoot := pass.Pkg.Path()[:strings.IndexByte(pass.Pkg.Path(), '/')+1]

	hashed := map[*types.TypeName]*hashedType{}
	for _, f := range pass.Files {
		if analysis.InTestFile(pass.Fset, f.Pos()) {
			continue
		}
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sn, ok := pass.TypesInfo.Selections[sel]
			if !ok || sn.Kind() != types.FieldVal {
				return true
			}
			named := analysis.Named(sn.Recv())
			if named == nil {
				return true
			}
			obj := named.Obj()
			// Only module-local structs form the key's identity; selector
			// reads on stdlib values (hash.Hash internals etc.) are noise.
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modRoot) {
				return true
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				return true
			}
			ht := hashed[obj]
			if ht == nil {
				ht = &hashedType{obj: obj, selected: map[string]bool{}}
				hashed[obj] = ht
			}
			ht.selected[sn.Obj().Name()] = true
			ht.lastSel = sel
			ht.lastStmt = enclosingStmt(stack)
			return true
		})
	}

	waivers, waiverPos := collectWaivers(pass)

	// Deterministic report order: by type name.
	names := make([]*types.TypeName, 0, len(hashed))
	for obj := range hashed {
		names = append(names, obj)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })

	used := map[string]bool{}
	for _, obj := range names {
		ht := hashed[obj]
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !fld.Exported() || ht.selected[fld.Name()] {
				continue
			}
			qual := obj.Pkg().Name() + "." + obj.Name() + "." + fld.Name()
			bare := obj.Name() + "." + fld.Name()
			if waivers[qual] || waivers[bare] {
				used[qual], used[bare] = true, true
				continue
			}
			d := analysis.Diagnostic{
				Pos: ht.lastSel.Pos(),
				Message: fmt.Sprintf("exported field %s is not written into the cache key; hash it and bump ckey.Version, or waive it with //ckey:ignore %s <reason>",
					qual, qual),
			}
			if fix := suggestWrite(pass, ht, fld); fix != nil {
				d.SuggestedFixes = []analysis.SuggestedFix{*fix}
			}
			pass.Report(d)
		}
	}

	// Stale waivers: naming a field that is hashed, or that no hashed type
	// declares.
	for name, pos := range waiverPos {
		if used[name] {
			continue
		}
		switch exists, alreadyHashed := resolveWaiver(names, hashed, name); {
		case exists && alreadyHashed:
			pass.Reportf(pos, "stale //ckey:ignore %s: field is written into the cache key; delete the waiver", name)
		case !exists:
			pass.Reportf(pos, "//ckey:ignore %s names no exported field of any hashed struct", name)
		}
	}
	return nil
}

// collectWaivers scans every comment in the package for //ckey:ignore
// directives, returning the waived Type.Field names (both bare and
// pkg-qualified spellings are accepted) and each directive's position.
func collectWaivers(pass *analysis.Pass) (map[string]bool, map[string]token.Pos) {
	waived := map[string]bool{}
	where := map[string]token.Pos{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//ckey:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "//ckey:ignore needs a field name and a reason: //ckey:ignore pkg.Type.Field <why>")
					continue
				}
				waived[fields[0]] = true
				where[fields[0]] = c.Pos()
			}
		}
	}
	return waived, where
}

// resolveWaiver resolves name ("Type.Field" or "pkg.Type.Field") against
// the hashed structs: exists is true when some hashed struct declares the
// exported field, alreadyHashed when that field is also written into the
// key (which makes the waiver stale).
func resolveWaiver(names []*types.TypeName, hashed map[*types.TypeName]*hashedType, name string) (exists, alreadyHashed bool) {
	parts := strings.Split(name, ".")
	if len(parts) == 3 {
		parts = parts[1:]
	}
	if len(parts) != 2 {
		return false, false
	}
	for _, o := range names {
		if o.Name() != parts[0] {
			continue
		}
		st := o.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && f.Name() == parts[1] {
				return true, hashed[o].selected[f.Name()]
			}
		}
	}
	return false, false
}

// suggestWrite builds the mechanical fix for a missing basic-typed field:
// insert the matching write helper call right after the statement that
// last touched the same struct, reusing that statement's receiver
// expression and indentation.
func suggestWrite(pass *analysis.Pass, ht *hashedType, fld *types.Var) *analysis.SuggestedFix {
	if ht.lastStmt == nil {
		return nil
	}
	var helper string
	switch b, _ := fld.Type().Underlying().(*types.Basic); {
	case b == nil:
		return nil
	case b.Info()&types.IsInteger != 0:
		helper = "writeInt"
	case b.Info()&types.IsString != 0:
		helper = "writeString"
	case b.Kind() == types.Float64:
		helper = "writeFloat"
	default:
		return nil
	}
	var base bytes.Buffer
	if err := printer.Fprint(&base, pass.Fset, ht.lastSel.X); err != nil {
		return nil
	}
	indent := strings.Repeat("\t", pass.Fset.Position(ht.lastStmt.Pos()).Column-1)
	text := fmt.Sprintf("\n%s%s(h, %s.%s)", indent, helper, base.String(), fld.Name())
	return &analysis.SuggestedFix{
		Message:   fmt.Sprintf("hash %s.%s with %s (remember to bump ckey.Version)", base.String(), fld.Name(), helper),
		TextEdits: []analysis.TextEdit{{Pos: ht.lastStmt.End(), End: ht.lastStmt.End(), NewText: []byte(text)}},
	}
}

func enclosingStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if s, ok := stack[i].(ast.Stmt); ok {
			return s
		}
	}
	return nil
}
