package muzzle

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// testMachine is a small machine that keeps pipeline tests fast (4 traps x
// 6 usable slots = 24 qubits).
func testMachine(t *testing.T) MachineConfig { return linearMachine(t, 4, 8, 2) }

func TestNewPipelineDefaultsAreThePaperSetup(t *testing.T) {
	p, err := NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Compilers(); len(got) != 2 || got[0] != CompilerBaseline || got[1] != CompilerOptimized {
		t.Errorf("default compilers = %v, want [baseline optimized]", got)
	}
	cfg := p.Machine()
	paper := PaperMachine()
	if cfg.Capacity != paper.Capacity || cfg.CommCapacity != paper.CommCapacity ||
		cfg.Topology.NumTraps() != paper.Topology.NumTraps() {
		t.Errorf("default machine %+v differs from PaperMachine", cfg)
	}
	if got := len(p.RandomCircuits()); got != 120 {
		t.Errorf("default random suite has %d circuits, want 120", got)
	}
}

func TestPipelineOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opt  PipelineOption
		code ErrorCode
	}{
		{"unknown compiler", WithCompilers("not-a-compiler"), ErrUnknownCompiler},
		{"empty compilers", WithCompilers(), ErrBadOption},
		{"duplicate compilers", WithCompilers("optimized", "optimized"), ErrBadOption},
		{"negative parallelism", WithParallelism(-1), ErrBadOption},
		{"negative random limit", WithRandomLimit(-1), ErrBadOption},
		{"nil mapper", WithMapper(nil), ErrBadOption},
		{"nil progress", WithProgress(nil), ErrBadOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPipeline(tc.opt)
			if err == nil {
				t.Fatal("option accepted")
			}
			var me *Error
			if !errors.As(err, &me) {
				t.Fatalf("error %T is not *muzzle.Error: %v", err, err)
			}
			if me.Code != tc.code {
				t.Errorf("code = %s, want %s", me.Code, tc.code)
			}
		})
	}
}

func TestRegisterCompilerErrors(t *testing.T) {
	if err := RegisterCompiler("", func() *Compiler { return NewOptimizedCompiler() }); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterCompiler("pipeline-test-nilfactory", nil); err == nil {
		t.Error("nil factory accepted")
	}
	err := RegisterCompiler(CompilerOptimized, func() *Compiler { return NewOptimizedCompiler() })
	var me *Error
	if !errors.As(err, &me) || me.Code != ErrDuplicateCompiler {
		t.Errorf("duplicate registration error = %v, want code %s", err, ErrDuplicateCompiler)
	}
}

// TestThirdCompilerInEvaluate is the acceptance check that a compiler
// registered at the public boundary flows through an Evaluate run without
// any harness change.
func TestThirdCompilerInEvaluate(t *testing.T) {
	const name = "pipeline-test-ablation"
	if err := RegisterCompiler(name, func() *Compiler {
		return NewOptimizedCompilerWithOptions(OptimizerOptions{DisableReorder: true})
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range RegisteredCompilers() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s missing from RegisteredCompilers(): %v", name, RegisteredCompilers())
	}

	p, err := NewPipeline(
		WithMachine(testMachine(t)),
		WithCompilers(CompilerBaseline, CompilerOptimized, name),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.Evaluate(context.Background(), []*Circuit{RandomCircuit(14, 80, 11)})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	third := results[0].Outcome(name)
	if third == nil || third.Result == nil || third.Sim == nil {
		t.Fatal("third compiler outcome missing from Evaluate run")
	}
	// The paper pair still anchors the Table II renderers.
	base, opt := results[0].Pair()
	if base.Compiler != CompilerBaseline || opt.Compiler != CompilerOptimized {
		t.Errorf("Pair = %s/%s, want baseline/optimized", base.Compiler, opt.Compiler)
	}
	if m := FormatCompilerMatrix(results); !strings.Contains(m, name) {
		t.Errorf("compiler matrix missing %s:\n%s", name, m)
	}
}

// TestEvaluateCancellation cancels mid-run over the full 120-circuit
// random suite and requires a prompt return carrying context.Canceled —
// the acceptance bound is one circuit's compile time, approximated here
// with a generous wall-clock ceiling far below the full run's cost.
func TestEvaluateCancellation(t *testing.T) {
	p, err := NewPipeline(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := p.EvaluateRandom(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var me *Error
	if !errors.As(err, &me) || me.Code != ErrCanceled {
		t.Errorf("err = %v, want *Error with code %s", err, ErrCanceled)
	}
	if len(results) >= 120 {
		t.Errorf("run completed (%d results) despite cancellation", len(results))
	}
	// The full suite takes on the order of a minute; a canceled run must
	// return within roughly one circuit's compile time.
	if elapsed > 15*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEvaluateTimeout exercises context.WithTimeout end to end (the path
// cmd/muzzle's -timeout flag uses).
func TestEvaluateTimeout(t *testing.T) {
	p, err := NewPipeline(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = p.EvaluateRandom(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var me *Error
	if !errors.As(err, &me) || me.Code != ErrCanceled {
		t.Errorf("err = %v, want *Error with code %s", err, ErrCanceled)
	}
}

func TestEvaluateStreamAndProgress(t *testing.T) {
	var events []EvalEvent
	p, err := NewPipeline(
		WithMachine(testMachine(t)),
		WithProgress(func(ev EvalEvent) { events = append(events, ev) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*Circuit{
		RandomCircuit(12, 60, 1),
		RandomCircuit(14, 60, 2),
		RandomCircuit(16, 60, 3),
	}
	items := 0
	for item := range p.EvaluateStream(context.Background(), circuits) {
		if item.Err != nil {
			t.Errorf("circuit %s failed: %v", item.Circuit, item.Err)
		}
		items++
	}
	if items != len(circuits) {
		t.Errorf("streamed %d items, want %d", items, len(circuits))
	}
	var started, completed int
	for _, ev := range events {
		switch ev.Kind {
		case EvalStarted:
			started++
		case EvalCompleted:
			completed++
		}
	}
	if started != len(circuits) || completed != len(circuits) {
		t.Errorf("events started=%d completed=%d, want %d each", started, completed, len(circuits))
	}
}

func TestPipelineSimulateAndMapper(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(
		WithMachine(testMachine(t)),
		WithMapper(RefinedMapper{}),
		WithSimParams(DefaultSimParams()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Compile(ctx, RandomCircuit(12, 60, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shuttles != res.Shuttles {
		t.Errorf("sim shuttles %d != compile shuttles %d", rep.Shuttles, res.Shuttles)
	}
	if rep.Fidelity <= 0 || rep.Fidelity > 1 {
		t.Errorf("fidelity = %g", rep.Fidelity)
	}
}

func TestPipelineCompileUnknownName(t *testing.T) {
	p, err := NewPipeline(WithMachine(testMachine(t)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.CompileWith(context.Background(), "nope", RandomCircuit(8, 20, 1))
	var me *Error
	if !errors.As(err, &me) || me.Code != ErrUnknownCompiler {
		t.Fatalf("err = %v, want code %s", err, ErrUnknownCompiler)
	}
}

// TestPipelinePartialFailure: Evaluate keeps completed circuits when one
// circuit cannot compile.
func TestPipelinePartialFailure(t *testing.T) {
	p, err := NewPipeline(WithMachine(testMachine(t)))
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*Circuit{
		RandomCircuit(12, 60, 1),
		RandomCircuit(60, 80, 2), // 60 qubits cannot fit 3x8 slots
		RandomCircuit(14, 60, 3),
	}
	results, err := p.Evaluate(context.Background(), circuits)
	if err == nil {
		t.Fatal("expected partial-failure error")
	}
	var me *Error
	if !errors.As(err, &me) || me.Code != ErrEvaluate {
		t.Errorf("err = %v, want code %s", err, ErrEvaluate)
	}
	if len(results) != 2 {
		t.Errorf("got %d partial results, want 2", len(results))
	}
}

func TestWithRandomSeed(t *testing.T) {
	base, err := NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	// The default seed reproduces the paper's suite exactly.
	paperSeed, err := NewPipeline(WithRandomSeed(DefaultRandomSuiteParams().Seed))
	if err != nil {
		t.Fatal(err)
	}
	want, got := base.RandomCircuits(), paperSeed.RandomCircuits()
	if len(want) != len(got) {
		t.Fatalf("suite sizes differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("circuit %d: %q vs %q under the paper seed", i, want[i].Name, got[i].Name)
		}
	}
	// A different seed draws a different (but same-shape) suite,
	// reproducibly.
	alt1, err := NewPipeline(WithRandomSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	alt2, err := NewPipeline(WithRandomSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := alt1.RandomCircuits(), alt2.RandomCircuits()
	if len(a1) != 120 {
		t.Fatalf("re-seeded suite has %d circuits, want 120", len(a1))
	}
	same := true
	for i := range a1 {
		if a1[i].Name != a2[i].Name {
			t.Fatalf("seed 7 not reproducible at circuit %d", i)
		}
		if a1[i].Name != want[i].Name {
			same = false
		}
	}
	if same {
		t.Error("seed 7 drew the paper suite; seeds have no effect")
	}
	// WithRandomSeed wins regardless of option order around
	// WithRandomSuite.
	params := DefaultRandomSuiteParams()
	params.Seed = 99
	before, err := NewPipeline(WithRandomSeed(7), WithRandomSuite(params))
	if err != nil {
		t.Fatal(err)
	}
	if before.RandomCircuits()[0].Name != a1[0].Name {
		t.Error("WithRandomSeed applied before WithRandomSuite was overridden")
	}
}

func TestWithCachePipeline(t *testing.T) {
	cache, err := NewCache(CacheConfig{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithMachine(testMachine(t)), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	c := RandomCircuit(12, 60, 5)
	first, err := p.EvaluateCircuit(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first run: %+v, want 1 miss", s)
	}
	second, err := p.EvaluateCircuit(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("after second run: %+v, want 1 hit", s)
	}
	if first != second {
		t.Error("cache hit should return the identical result")
	}
	// A different circuit misses.
	if _, err := p.EvaluateCircuit(context.Background(), RandomCircuit(12, 60, 6)); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Fatalf("different circuit should miss: %+v", s)
	}
	// A custom mapper bypasses the cache entirely.
	pm, err := NewPipeline(WithMachine(testMachine(t)), WithCache(cache), WithMapper(RoundRobinMapper{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.EvaluateCircuit(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("mapper run should not touch the cache: %+v", s)
	}
	if err := func() error {
		_, err := NewPipeline(WithCache(nil))
		return err
	}(); err == nil {
		t.Error("WithCache(nil) should fail")
	}
}

// TestWithProgressComposes: multiple WithProgress options all receive
// every event, in option order.
func TestWithProgressComposes(t *testing.T) {
	var order []string
	p, err := NewPipeline(
		WithMachine(testMachine(t)),
		WithProgress(func(ev EvalEvent) {
			if ev.Kind == EvalCompleted {
				order = append(order, "first")
			}
		}),
		WithProgress(func(ev EvalEvent) {
			if ev.Kind == EvalCompleted {
				order = append(order, "second")
			}
		}),
		WithParallelism(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(context.Background(), []*Circuit{RandomCircuit(8, 20, 1)}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("callback order = %v, want [first second]", order)
	}
}
