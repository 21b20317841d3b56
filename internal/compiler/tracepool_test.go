package compiler_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
)

// Compiles record into a reused trace buffer, so a returned trace must be a
// copy: compiling ever larger programs afterwards, which makes the pooled
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

// The trace pool is shared by every goroutine of the process: compiling
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
