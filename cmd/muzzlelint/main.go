// Command muzzlelint runs the repo's custom analyzer suite (internal/lint,
// seven analyzers) over Go packages. Two modes:
//
// Standalone, for CI and local use — this mode builds the whole-program
// call graph the interprocedural analyzers (allocflow, ctxflow, lockorder)
// consume:
//
//	go run ./cmd/muzzlelint ./...
//	go run ./cmd/muzzlelint -stats ./...
//	go run ./cmd/muzzlelint -fix ./internal/service      # dry-run diff
//	go run ./cmd/muzzlelint -fix -w ./internal/service   # apply in place
//
// As a vet tool, which lets `go vet` drive it incrementally through the
// build cache using the unitchecker protocol (-V=full handshake, -flags
// enumeration, then one .cfg file per package). In this mode each package
// is analyzed in isolation, so the call graph covers only the current
// package and the interprocedural analyzers degrade to their
// intra-package subset; allocflow's rule for a //muzzle:hotpath function's
// own body runs in full:
//
//	go build -o muzzlelint ./cmd/muzzlelint
//	go vet -vettool=$PWD/muzzlelint ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"muzzle/internal/lint"
	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/callgraph"
	"muzzle/internal/lint/fixer"
	"muzzle/internal/lint/load"
)

func main() {
	// The vet handshake comes before flag parsing: vet probes the tool's
	// identity with -V=full and its flag set with -flags.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" {
			// Hex suffix doubles as the protocol's cache-busting build ID.
			fmt.Printf("%s version devel comments-go-here buildID=muzzlelint-2\n", os.Args[0])
			return
		}
		if arg == "-flags" {
			// Flags vet is allowed to forward to us.
			fmt.Println(`[{"Name":"fix","Bool":true,"Usage":"preview suggested fixes as a diff"},` +
				`{"Name":"w","Bool":true,"Usage":"with -fix, apply fixes in place"},` +
				`{"Name":"stats","Bool":true,"Usage":"print per-analyzer finding counts and wall time"}]`)
			return
		}
	}

	fix := flag.Bool("fix", false, "preview suggested fixes as a dry-run diff")
	write := flag.Bool("w", false, "with -fix, apply the fixes in place instead of previewing")
	stats := flag.Bool("stats", false, "print per-analyzer finding counts and wall time")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: muzzlelint [-fix [-w]] [-stats] <packages>\n       muzzlelint <package>.cfg  (vet unitchecker mode)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args, *fix, *write, *stats))
}

// finding pairs a diagnostic with the package whose pass produced it so
// fixes can be applied and output ordered globally.
type finding struct {
	analyzer string
	fset     *token.FileSet
	diag     analysis.Diagnostic
}

func standalone(patterns []string, fix, write, stats bool) int {
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muzzlelint:", err)
		return 2
	}

	// One whole-program call graph across every loaded package: the loader
	// shares a FileSet, so the units compose directly. Packages with type
	// errors abort below anyway, but keep the graph clean of them.
	var units []*callgraph.Unit
	var fset *token.FileSet
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			continue
		}
		fset = p.Fset
		units = append(units, &callgraph.Unit{Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info})
	}
	var prog *callgraph.Program
	if fset != nil {
		prog = callgraph.Build(fset, units)
	}

	counts := map[string]int{}
	elapsed := map[string]time.Duration{}
	var findings []finding
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "muzzlelint: %s: %v\n", p.ImportPath, e)
			}
			return 2
		}
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
				counts[a.Name]++
				findings = append(findings, finding{a.Name, p.Fset, d})
			}
			t0 := time.Now()
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "muzzlelint: %s: %s: %v\n", a.Name, p.ImportPath, err)
				return 2
			}
			elapsed[a.Name] += time.Since(t0)
		}
	}

	if stats {
		// Stats go to stdout so CI can append them to the job summary while
		// findings stay on stderr.
		fmt.Printf("%-12s %8s %12s\n", "analyzer", "findings", "wall")
		for _, a := range lint.All() {
			fmt.Printf("%-12s %8d %12s\n", a.Name, counts[a.Name], elapsed[a.Name].Round(time.Microsecond))
		}
	}
	if len(findings) == 0 {
		return 0
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].fset.Position(findings[i].diag.Pos), findings[j].fset.Position(findings[j].diag.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.fset.Position(f.diag.Pos), f.analyzer, f.diag.Message)
	}
	if fix {
		var diags []analysis.Diagnostic
		for _, f := range findings {
			diags = append(diags, f.diag)
		}
		edits := fixer.Collect(findings[0].fset, diags)
		switch {
		case len(edits) == 0:
			fmt.Fprintln(os.Stderr, "muzzlelint: no suggested fixes to apply")
		case write:
			applied, files, err := fixer.Apply(edits)
			if err != nil {
				fmt.Fprintln(os.Stderr, "muzzlelint: applying fixes:", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "muzzlelint: applied %d fix edit(s) across %d file(s)\n", applied, files)
		default:
			if err := fixer.Diff(os.Stderr, edits); err != nil {
				fmt.Fprintln(os.Stderr, "muzzlelint: rendering fix diff:", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "muzzlelint: %d fix edit(s) available; rerun with -fix -w to apply\n", len(edits))
		}
	}
	return 1
}

// vetConfig is the subset of vet's unitchecker .cfg file we consume.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package the way `go vet -vettool` drives it.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muzzlelint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "muzzlelint:", err)
		return 2
	}
	// The driver requires the facts file to exist even though this suite
	// exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "muzzlelint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "muzzlelint:", err)
			return 2
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "muzzlelint:", err)
		return 2
	}

	// Single-unit call graph: only this package's bodies are visible, so
	// the interprocedural analyzers check what they can see and skip
	// cross-package propagation (documented degradation of vet mode).
	prog := callgraph.Build(fset, []*callgraph.Unit{{Fset: fset, Files: files, Pkg: pkg, Info: info}})

	exit := 0
	for _, a := range lint.All() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Program:   prog,
		}
		pass.Report = func(d analysis.Diagnostic) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 2
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "muzzlelint: %s: %v\n", a.Name, err)
			return 2
		}
	}
	return exit
}
