package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle/internal/lint"
	"muzzle/internal/lint/allocflow"
	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/analysistest"
	"muzzle/internal/lint/cachekey"
	"muzzle/internal/lint/callgraph"
	"muzzle/internal/lint/ctxflow"
	"muzzle/internal/lint/faultscope"
	"muzzle/internal/lint/fixer"
	"muzzle/internal/lint/guardedby"
	"muzzle/internal/lint/httperr"
	"muzzle/internal/lint/load"
	"muzzle/internal/lint/lockorder"
)

func TestCachekey(t *testing.T) {
	diags, _ := analysistest.Run(t, "testdata", cachekey.Analyzer, "ckeyfix/internal/ckey")

	// The missing-field diagnostic must carry the mechanical hash-write
	// fix, anchored after the last Gate statement with the right helper.
	var fixed bool
	for _, d := range diags {
		if !strings.Contains(d.Message, "circuit.Gate.Label") || len(d.SuggestedFixes) == 0 {
			continue
		}
		fix := d.SuggestedFixes[0]
		if len(fix.TextEdits) != 1 {
			t.Fatalf("fix edits = %d, want 1", len(fix.TextEdits))
		}
		if got := string(fix.TextEdits[0].NewText); !strings.Contains(got, "writeString(h, g.Label)") {
			t.Errorf("fix text = %q, want a writeString(h, g.Label) insert", got)
		}
		if !strings.Contains(fix.Message, "ckey.Version") {
			t.Errorf("fix message %q should remind about the version bump", fix.Message)
		}
		fixed = true
	}
	if !fixed {
		t.Error("missing-field diagnostic carried no suggested fix")
	}
}

func TestFaultscope(t *testing.T) {
	analysistest.Run(t, "testdata", faultscope.Analyzer, "fsfix/use")
}

func TestFaultscopeExemptsRegistry(t *testing.T) {
	// The registry package declares scopes as literals by definition; the
	// analyzer must stay silent there.
	diags, _ := analysistest.Run(t, "testdata", faultscope.Analyzer, "fsfix/internal/faults")
	if len(diags) != 0 {
		t.Errorf("registry package produced %d diagnostics, want 0", len(diags))
	}
}

// TestHotpath pins allocflow's rule 1: the allocating constructs of a
// //muzzle:hotpath function's own body.
func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", allocflow.Analyzer, "hotfix/a")
}

func TestGuardedby(t *testing.T) {
	analysistest.Run(t, "testdata", guardedby.Analyzer, "gbfix/a")
}

func TestHTTPErr(t *testing.T) {
	diags, _ := analysistest.Run(t, "testdata", httperr.Analyzer, "httpfix/a")
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %d, want 2", len(diags))
	}
	wantFixes := []string{
		`writeError(w, http.StatusInternalServerError, "internal", err)`,
		`writeError(w, http.StatusBadRequest, "internal", errors.New("boom"))`,
	}
	for i, d := range diags {
		if len(d.SuggestedFixes) == 0 {
			t.Errorf("diagnostic %d carried no fix", i)
			continue
		}
		if got := string(d.SuggestedFixes[0].TextEdits[0].NewText); got != wantFixes[i] {
			t.Errorf("fix %d = %q, want %q", i, got, wantFixes[i])
		}
	}
}

// TestCallgraph pins the engine's resolution semantics: which call forms
// produce static edges, which fall to ⊤, and where closure bodies land.
func TestCallgraph(t *testing.T) {
	prog, _ := analysistest.Program(t, "testdata", "cgfix/a")

	node := func(id string) *callgraph.Node {
		t.Helper()
		n := prog.Node(id)
		if n == nil {
			t.Fatalf("no node %q in program", id)
		}
		return n
	}
	edges := func(n *callgraph.Node) []string {
		out := make([]string, len(n.Out))
		for i, e := range n.Out {
			out[i] = e.CalleeID
		}
		return out
	}

	cases := []struct {
		id      string
		out     []string
		dynamic int
	}{
		{"cgfix/a.Direct", []string{"cgfix/a.F"}, 0},
		{"cgfix/a.MethodCall", []string{"cgfix/a.T.M"}, 0},
		{"cgfix/a.MethodValue", []string{"cgfix/a.T.M"}, 0},
		{"cgfix/a.FuncValue", []string{"cgfix/a.F"}, 0},
		{"cgfix/a.Closure", []string{"cgfix/a.F"}, 0},
		{"cgfix/a.Iface", nil, 1},
		{"cgfix/a.Reassigned", nil, 1},
		{"cgfix/a.MethodExpr", []string{"cgfix/a.T.M"}, 0},
		{"cgfix/a.Conversion", nil, 0},
	}
	for _, c := range cases {
		n := node(c.id)
		got := edges(n)
		if len(got) != len(c.out) {
			t.Errorf("%s: edges = %v, want %v", c.id, got, c.out)
			continue
		}
		for i := range got {
			if got[i] != c.out[i] {
				t.Errorf("%s: edge %d = %s, want %s", c.id, i, got[i], c.out[i])
			}
		}
		if len(n.Dynamic) != c.dynamic {
			t.Errorf("%s: dynamic sites = %d, want %d", c.id, len(n.Dynamic), c.dynamic)
		}
	}
}

func TestAllocflow(t *testing.T) {
	analysistest.Run(t, "testdata", allocflow.Analyzer, "afix/helper", "afix/hot")
}

func TestCtxflow(t *testing.T) {
	// The helper package is loaded as a dependency and feeds the summaries,
	// but only the covered package is a pass; helper's own Background
	// constructions must not report (it is off the request path).
	analysistest.Run(t, "testdata", ctxflow.Analyzer, "cfix/internal/service")
}

func TestCtxflowSkipsUncoveredPackage(t *testing.T) {
	diags, _ := analysistest.Run(t, "testdata", ctxflow.Analyzer, "cfix/helper")
	if len(diags) != 0 {
		t.Errorf("uncovered package produced %d diagnostics, want 0", len(diags))
	}
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lofix/a")
}

// TestFixIdempotent drives the -fix pipeline the way CI's idempotency step
// does: apply every suggested fix to a copy of the httperr fixture, then
// re-analyze the mutated copy and require zero remaining fixable findings.
func TestFixIdempotent(t *testing.T) {
	tmp := t.TempDir()
	copyTree(t, filepath.Join("testdata", "src", "httpfix"), filepath.Join(tmp, "src", "httpfix"))

	diags, fset := analysistest.Diagnostics(t, tmp, httperr.Analyzer, "httpfix/a")
	edits := fixer.Collect(fset, diags)
	if len(edits) != 2 {
		t.Fatalf("first pass: %d fix edits, want 2", len(edits))
	}
	applied, files, err := fixer.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || files != 1 {
		t.Fatalf("applied %d edits to %d files, want 2 edits to 1 file", applied, files)
	}

	again, fset2 := analysistest.Diagnostics(t, tmp, httperr.Analyzer, "httpfix/a")
	if left := fixer.Collect(fset2, again); len(left) != 0 {
		t.Fatalf("second pass after applying fixes: %d fix edits remain, want 0", len(left))
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepoClean is the zero-findings smoke test: the multichecker's own
// load path over the live repository, every analyzer (the interprocedural
// ones included, via the whole-program call graph), no diagnostics. This
// is the same invariant CI gates on with `go run ./cmd/muzzlelint`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := load.Load(".", "muzzle/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern matched too little", len(pkgs))
	}
	var units []*callgraph.Unit
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("%s: type error: %v", p.ImportPath, e)
		}
		units = append(units, &callgraph.Unit{Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info})
	}
	prog := callgraph.Build(pkgs[0].Fset, units)
	for _, p := range pkgs {
		for _, a := range lint.All() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Program:   prog,
			}
			pass.Report = func(d analysis.Diagnostic) {
				t.Errorf("%s: [%s] %s", p.Fset.Position(d.Pos), a.Name, d.Message)
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %s: %v", a.Name, p.ImportPath, err)
			}
		}
	}
}
