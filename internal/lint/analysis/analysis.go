// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics, optionally
// carrying mechanical SuggestedFixes. The repo's analyzers are written
// against this surface so they read like stock go/analysis checkers, but
// the module stays dependency-free — the container build has no module
// proxy, so x/tools itself cannot be vendored in.
//
// The deliberate omissions from the real API: no Facts (no analyzer here
// needs cross-package state — each one either inspects a single package or
// keys off annotations in the package it inspects), no ResultOf chaining,
// and no requirement machinery. If the repo ever vendors x/tools, the
// analyzers port by swapping this import and deleting nothing.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"muzzle/internal/lint/callgraph"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic tag, a valid
	// identifier ("cachekey", "guardedby", ...).
	Name string
	// Doc is the help text: first line summary, then detail.
	Doc string
	// Run inspects one package via pass and reports findings through
	// pass.Report / pass.Reportf. A returned error aborts the whole lint
	// run (reserved for analyzer bugs, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Program is the whole-program call graph when the driver built one
	// (standalone muzzlelint, analysistest, TestRepoClean). Interprocedural
	// analyzers (allocflow, ctxflow, lockorder) degrade gracefully when it
	// is nil or partial — under `go vet -vettool` each unit is checked in
	// isolation, so only the current package's bodies are in the graph and
	// cross-package propagation is silently skipped.
	Program *callgraph.Program

	// Report receives each diagnostic. The driver sets it.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers whose
// invariant only binds production code (allocflow, cachekey, ctxflow,
// guardedby, httperr, lockorder) skip such positions; faultscope
// deliberately includes them, because fault scopes are typed almost
// exclusively in tests.
func InTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding; End is optional (NoPos = point finding).
	Pos token.Pos
	End token.Pos
	// Message states the violated invariant, lowercase, no trailing period.
	Message string
	// SuggestedFixes are mechanical repairs, applied by muzzlelint -fix.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained repair: all edits must apply together.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces [Pos, End) with NewText. Pos == End inserts.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// WalkStack traverses every node under root in source order, calling fn
// with the node and its ancestor chain (outermost first, node itself
// excluded). Returning false skips the node's children. It is the
// stack-aware inspector several analyzers need (x/tools gets this from
// astutil/inspector; here it is a 20-line visitor).
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if !fn(n, stack) {
			return
		}
		stack = append(stack, n)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			visit(c)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	visit(root)
}

// ExprText renders e as source text, for comparing expressions ("m",
// "j.opts") and for building suggested fixes; "" if e cannot be printed.
func ExprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// Named unwraps pointers and aliases to the named type of t, or nil.
func Named(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// HasDirective reports whether the doc comment group contains a line whose
// first word (after "//") is exactly directive, e.g. "muzzle:hotpath".
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	_, ok := Directive(doc, directive)
	return ok
}

// Directive finds a doc comment line whose first word (after "//") is
// exactly directive and returns the rest of the line — the waiver reason
// for directives like "muzzle:allocok <reason>" — with found=true. A bare
// directive returns ("", true); callers that require a reason treat the
// empty argument as its own finding.
func Directive(doc *ast.CommentGroup, directive string) (arg string, found bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if a, ok := DirectiveComment(c, directive); ok {
			return a, true
		}
	}
	return "", false
}

// DirectiveComment matches a single comment against directive the way
// Directive matches doc lines. It exists for same-line waivers
// (`ctx := context.Background() //muzzle:ctx-background <reason>`), which
// live in ast.File.Comments rather than any declaration's doc group.
func DirectiveComment(c *ast.Comment, directive string) (arg string, found bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if text == directive {
		return "", true
	}
	if rest, ok := strings.CutPrefix(text, directive+" "); ok {
		return strings.TrimSpace(rest), true
	}
	return "", false
}
