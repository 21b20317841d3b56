package muzzle

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"muzzle/internal/eval"
)

// linearMachine builds a linear test machine through the validating
// constructor.
func linearMachine(t *testing.T, traps, capacity, commCapacity int) MachineConfig {
	t.Helper()
	cfg, err := NewLinearMachine(traps, capacity, commCapacity)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// testPipeline is the paper's pipeline on a custom machine.
func testPipeline(t *testing.T, cfg MachineConfig) *Pipeline {
	t.Helper()
	p, err := NewPipeline(WithMachine(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuickstartFlow(t *testing.T) {
	c := QFT(12)
	p := testPipeline(t, linearMachine(t, 3, 8, 2))
	res, err := p.Compile(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates2Q != 12*11 {
		t.Errorf("QFT(12) executed %d 2Q gates, want %d", res.Gates2Q, 12*11)
	}
	rep, err := p.Simulate(t.Context(), res)
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

func TestBaselineVsOptimizedFacade(t *testing.T) {
	c := RandomCircuit(20, 150, 5)
	p := testPipeline(t, linearMachine(t, 4, 8, 2))
	rb, err := p.CompileWith(t.Context(), CompilerBaseline, c)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := p.Compile(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Shuttles > rb.Shuttles {
		t.Errorf("optimized (%d) worse than baseline (%d)", ro.Shuttles, rb.Shuttles)
	}
}

func TestQASMFacade(t *testing.T) {
	c := NewCircuit("demo", 3)
	c.Add1Q("h", 0)
	c.Add2Q("cx", 0, 2)
	var buf bytes.Buffer
	if err := WriteQASM(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ParseQASM("demo", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Gates) != 2 {
		t.Fatalf("gates = %d", len(got.Gates))
	}
	d, err := Decompose(got)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count2Q() != 1 {
		t.Errorf("decomposed 2Q = %d", d.Count2Q())
	}
}

func TestMachineConstructors(t *testing.T) {
	if PaperMachine().Capacity != 17 {
		t.Error("PaperMachine capacity wrong")
	}
	grid, err := NewGridMachine(2, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Topology.NumTraps() != 6 {
		t.Error("NewGridMachine traps wrong")
	}
	ring, err := NewRingMachine(5, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Topology.Diameter() != 2 {
		t.Error("NewRingMachine diameter wrong")
	}
	if len(Benchmarks()) != 5 {
		t.Error("Benchmarks catalog wrong")
	}
}

func TestEvaluateFacade(t *testing.T) {
	p := testPipeline(t, linearMachine(t, 3, 8, 2))
	r, err := p.EvaluateCircuit(t.Context(), RandomCircuit(14, 80, 11))
	if err != nil {
		t.Fatal(err)
	}
	t2 := FormatTableII([]*EvalResult{r}, nil)
	if !strings.Contains(t2, "TABLE II") {
		t.Error("TableII formatting broken")
	}
	if !strings.Contains(FormatFigure8([]*EvalResult{r}, nil), "FIG. 8") {
		t.Error("Figure8 formatting broken")
	}
	if !strings.Contains(FormatTableIII([]*EvalResult{r}, nil), "TABLE III") {
		t.Error("TableIII formatting broken")
	}
	if !strings.Contains(FormatSummary([]*EvalResult{r}, nil), "circuits=1") {
		t.Error("Summary formatting broken")
	}
}

func TestTraceFacade(t *testing.T) {
	res, err := testPipeline(t, linearMachine(t, 3, 6, 2)).Compile(t.Context(), RandomCircuit(10, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"shuttles\"") {
		t.Error("JSON trace missing fields")
	}
	buf.Reset()
	if err := RenderTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "initial:") {
		t.Error("trace render missing")
	}
}

// TestTraceExportsRejectSummaryOnly: a result served from the disk cache
// keeps its counters but no machine, placement or trace. Every trace export
// must return an error for it instead of panicking.
func TestTraceExportsRejectSummaryOnly(t *testing.T) {
	p := testPipeline(t, linearMachine(t, 3, 6, 2))
	r, err := p.EvaluateCircuit(t.Context(), RandomCircuit(10, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, opt := eval.EncodeResult(r).BenchResult().Pair()
	for name, export := range map[string]func(io.Writer, *CompileResult) error{
		"WriteTraceJSON":   WriteTraceJSON,
		"RenderTrace":      RenderTrace,
		"WriteScheduleSVG": WriteScheduleSVG,
	} {
		if err := export(io.Discard, opt.Result); err == nil {
			t.Errorf("%s accepted a summary-only result", name)
		}
	}
}

func TestAblationFacade(t *testing.T) {
	c := RandomCircuit(16, 100, 3)
	cfg := linearMachine(t, 4, 6, 2)
	variants := map[string]*Compiler{
		"full":        NewOptimizedCompilerWithOptions(OptimizerOptions{}),
		"no-reorder":  NewOptimizedCompilerWithOptions(OptimizerOptions{DisableReorder: true}),
		"no-futureop": NewOptimizedCompilerWithOptions(OptimizerOptions{DisableFutureOps: true}),
		"baseline":    NewBaselineCompiler(),
	}
	shuttles := map[string]int{}
	for name, comp := range variants {
		res, err := comp.CompileContext(t.Context(), c, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shuttles[name] = res.Shuttles
	}
	if shuttles["full"] > shuttles["baseline"] {
		t.Errorf("full (%d) worse than baseline (%d)", shuttles["full"], shuttles["baseline"])
	}
}

func TestSampleSuccessFacade(t *testing.T) {
	res, err := testPipeline(t, linearMachine(t, 2, 6, 2)).Compile(t.Context(), QFT(8))
	if err != nil {
		t.Fatal(err)
	}
	est, err := SampleSuccessContext(t.Context(), res, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean < 0 || est.Mean > 1 {
		t.Errorf("mean = %g", est.Mean)
	}
	if est.Analytic <= 0 || est.Analytic > 1 {
		t.Errorf("analytic = %g", est.Analytic)
	}
}

func TestExactFacade(t *testing.T) {
	c := NewCircuit("tiny", 4)
	c.Add2Q("cx", 0, 2)
	cfg := linearMachine(t, 2, 4, 1)
	opt, err := ExactMinShuttles(c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Errorf("exact optimum = %d, want 1", opt)
	}
}

func TestMapperFacade(t *testing.T) {
	c := RandomCircuit(12, 60, 4)
	cfg := linearMachine(t, 3, 6, 2)
	res, err := NewOptimizedCompiler().CompileWithMapperContext(t.Context(), c, cfg, RefinedMapper{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates2Q != 60 {
		t.Errorf("gates = %d", res.Gates2Q)
	}
	var _ Placement = GreedyMapper{}
	var _ Placement = RoundRobinMapper{}
	var _ Placement = RandomMapper{}
}

func TestScheduleSVGFacade(t *testing.T) {
	res, err := testPipeline(t, linearMachine(t, 2, 6, 2)).Compile(t.Context(), RandomCircuit(8, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteScheduleSVG(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("no SVG output")
	}
}
