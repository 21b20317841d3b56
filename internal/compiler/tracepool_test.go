package compiler_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
)

// Compiles record into a reused trace buffer, so a returned trace must be a
// copy: compiling ever larger programs afterwards, which makes the reused
// buffer grow, must leave every earlier result's ops as they were. The
// programs are shuttle-heavy random circuits, whose traces outgrow the
// engine's up-front reservation, so each compile starts recording into the
// previous compile's buffer before growing it.
func TestTraceSurvivesLaterCompiles(t *testing.T) {
	ctx := context.Background()
	comp := core.New()
	var results []*compiler.Result
	var want [][]machine.Op
	for _, gates := range []int{250, 500, 1000, 2000} {
		res, err := comp.CompileContext(ctx, bench.Random(64, gates, 1), machine.PaperL6())
		if err != nil {
			t.Fatalf("%d gates: %v", gates, err)
		}
		results = append(results, res)
		want = append(want, slices.Clone(res.Ops))
	}
	for i, res := range results {
		if !slices.Equal(res.Ops, want[i]) {
			t.Errorf("trace of compile %d changed after later compiles", i)
		}
	}
}

// Idle trace buffers are shared by every goroutine of the process: compiling
// the Table II programs concurrently must give the traces a serial compile
// gives. Run under -race, this also checks that no two compiles share a
// buffer.
func TestConcurrentCompilesMatchSerial(t *testing.T) {
	ctx := context.Background()
	specs := bench.Catalog()
	compilers := []func() *compiler.Compiler{baseline.New, core.New}
	compileAll := func(rotate int) ([][]machine.Op, error) {
		out := make([][]machine.Op, len(specs)*len(compilers))
		for k := range out {
			j := (k + rotate) % len(out)
			res, err := compilers[j%len(compilers)]().CompileContext(ctx, specs[j/len(compilers)].Build(), machine.PaperL6())
			if err != nil {
				return nil, err
			}
			out[j] = res.Ops
		}
		return out, nil
	}
	serial, err := compileAll(0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	got := make([][][]machine.Op, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = compileAll(3 * w)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for j, ops := range got[w] {
			if !slices.Equal(ops, serial[j]) {
				t.Errorf("worker %d: %s/%d trace differs from the serial compile", w, specs[j/len(compilers)].Name, j%len(compilers))
			}
		}
	}
}

// LendMappedContext lends what CompileMappedContext returns, whether it
// builds the dependency graph itself or is handed one. A graph built for
// another circuit, even an identical one, is rejected before use runs, and
// use's own error comes back unchanged.
func TestLendMatchesCompileMapped(t *testing.T) {
	ctx := context.Background()
	cfg := machine.PaperL6()
	native, err := circuit.Decompose(bench.Random(48, 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	placement, err := compiler.GreedyPlacement(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := core.New()
	want, err := comp.CompileMappedContext(ctx, native, cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*dag.Graph{nil, dag.Build(native)} {
		err := comp.LendMappedContext(ctx, native, cfg, placement, g, func(res *compiler.Result) error {
			if !slices.Equal(res.Ops, want.Ops) || !slices.Equal(res.Order, want.Order) ||
				res.Shuttles != want.Shuttles || res.Reorders != want.Reorders || res.Rebalances != want.Rebalances {
				t.Errorf("graph %v: lent %d ops, %d shuttles; CompileMappedContext gave %d ops, %d shuttles",
					g != nil, len(res.Ops), res.Shuttles, len(want.Ops), want.Shuttles)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("graph %v: %v", g != nil, err)
		}
	}

	twin, err := circuit.Decompose(bench.Random(48, 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	called := false
	err = comp.LendMappedContext(ctx, native, cfg, placement, dag.Build(twin), func(*compiler.Result) error {
		called = true
		return nil
	})
	if err == nil || called {
		t.Fatalf("a graph of another circuit was accepted (err %v, use called %v)", err, called)
	}

	useErr := errors.New("use failed")
	if err := comp.LendMappedContext(ctx, native, cfg, placement, nil, func(*compiler.Result) error { return useErr }); err != useErr {
		t.Fatalf("err = %v, want use's error", err)
	}
}
