// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see the experiment index in DESIGN.md), plus ablation
// benchmarks for the individual design choices.
//
//	go test -bench=. -benchmem
//
// The per-benchmark sub-benchmarks report shuttles as a custom metric, so a
// -bench run regenerates both the performance numbers (Table III is compile
// time) and the shuttle counts (Table II) in one pass.
package muzzle

import (
	"context"
	"fmt"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/dag"
	"muzzle/internal/exact"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
	"muzzle/internal/topo"
)

// ---- Table I / Fig. 4: move-score computation and the ping-pong case -----

func fig4Setup(b *testing.B) (*compiler.Context, *circuit.Circuit, machine.Config, [][]int) {
	b.Helper()
	c := circuit.New("fig4", 5)
	c.Add2Q("ms", 1, 2)
	c.Add2Q("ms", 2, 3)
	c.Add2Q("ms", 1, 2)
	c.Add2Q("ms", 2, 4)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	placement := [][]int{{0, 1}, {2, 3, 4}}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, 4)}
	return ctx, c, cfg, placement
}

// BenchmarkTableI measures the future-ops move-score computation (the
// per-gate cost of the Section III-A policy).
func BenchmarkTableI(b *testing.B) {
	ctx, _, _, _ := fig4Setup(b)
	d := core.FutureOpsDirection{}
	remaining := []int{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sAB, sBA := d.MoveScores(ctx, 1, 2, remaining)
		if sAB != 3 || sBA != 1 {
			b.Fatalf("scores (%d,%d) != Table I (3,1)", sAB, sBA)
		}
	}
}

// BenchmarkFig4 compiles the Fig. 4 ping-pong program with both compilers.
func BenchmarkFig4(b *testing.B) {
	_, c, cfg, placement := fig4Setup(b)
	for _, tc := range []struct {
		name string
		comp *compiler.Compiler
		want int
	}{
		{"baseline", baseline.New(), 4},
		{"optimized", core.New(), 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tc.comp.CompileMappedContext(b.Context(), c, cfg, placement)
				if err != nil {
					b.Fatal(err)
				}
				if res.Shuttles != tc.want {
					b.Fatalf("shuttles = %d, want %d", res.Shuttles, tc.want)
				}
			}
		})
	}
}

// ---- Fig. 2 / Fig. 3: substrate micro-benchmarks --------------------------

// BenchmarkFig2DAGBuild measures dependency-graph construction on the
// largest benchmark (QFT-64 decomposed: ~20k gates).
func BenchmarkFig2DAGBuild(b *testing.B) {
	c, err := circuit.Decompose(bench.QFT64())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dag.Build(c)
		if g.NumGates() != len(c.Gates) {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkFig3ShuttlePrimitives measures the SWAP/SPLIT/MOVE/MERGE
// sequence of one hop.
func BenchmarkFig3ShuttlePrimitives(b *testing.B) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	for i := 0; i < b.N; i++ {
		st, err := machine.NewState(cfg, [][]int{{0, 1, 2}, {3, 4, 5}})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Hop(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 6: opportunistic re-ordering ------------------------------------

func BenchmarkFig6(b *testing.B) {
	c := circuit.New("fig6", 7)
	c.Add2Q("ms", 2, 3)
	c.Add2Q("ms", 4, 0)
	c.Add2Q("ms", 2, 5)
	c.Add2Q("ms", 6, 2)
	c.Add2Q("ms", 1, 4)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	placement := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	for _, tc := range []struct {
		name string
		comp *compiler.Compiler
		want int
	}{
		{"baseline", baseline.New(), 5},
		{"optimized", core.New(), 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tc.comp.CompileMappedContext(b.Context(), c, cfg, placement)
				if err != nil {
					b.Fatal(err)
				}
				if res.Shuttles != tc.want {
					b.Fatalf("shuttles = %d, want %d", res.Shuttles, tc.want)
				}
			}
		})
	}
}

// ---- Fig. 7: re-balancing ---------------------------------------------------

func BenchmarkFig7(b *testing.B) {
	cfg := machine.Config{Topology: topo.Linear(6), Capacity: 6, CommCapacity: 0}
	placement := [][]int{
		{0, 1, 2, 3},
		{4, 5, 6, 7, 8},
		{9, 10},
		{11, 12, 13, 14},
		{15, 16, 17, 18, 19, 20},
		{21},
	}
	c := circuit.New("fig7", 22)
	c.Add2Q("ms", 14, 21)
	for _, tc := range []struct {
		name string
		comp *compiler.Compiler
		want int
	}{
		{"baseline", baseline.New(), 6},
		{"optimized", core.New(), 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tc.comp.CompileMappedContext(b.Context(), c, cfg, placement)
				if err != nil {
					b.Fatal(err)
				}
				if res.Shuttles != tc.want {
					b.Fatalf("shuttles = %d, want %d", res.Shuttles, tc.want)
				}
			}
		})
	}
}

// ---- Table II + Table III: the five NISQ benchmarks -----------------------

// benchCompile reports shuttles/op as a custom metric; ns/op is the compile
// time (Table III), shuttles/op is the Table II entry.
func benchCompile(b *testing.B, build func() *circuit.Circuit, comp func() *compiler.Compiler) {
	c := build()
	cfg := machine.PaperL6()
	b.ResetTimer()
	shuttles := 0
	for i := 0; i < b.N; i++ {
		res, err := comp().CompileContext(b.Context(), c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		shuttles = res.Shuttles
	}
	b.ReportMetric(float64(shuttles), "shuttles/op")
}

// BenchmarkTableII regenerates Table II: each sub-benchmark compiles one
// NISQ benchmark with one compiler on the paper's L6 machine.
func BenchmarkTableII(b *testing.B) {
	for _, spec := range bench.Catalog() {
		spec := spec
		b.Run(spec.Name+"/baseline", func(b *testing.B) {
			benchCompile(b, spec.Build, func() *compiler.Compiler { return baseline.New() })
		})
		b.Run(spec.Name+"/optimized", func(b *testing.B) {
			benchCompile(b, spec.Build, func() *compiler.Compiler { return core.New() })
		})
	}
}

// BenchmarkTableIIRandom regenerates the Random row on a fixed
// representative circuit (70 qubits, 1438 two-qubit gates — the suite
// mean).
func BenchmarkTableIIRandom(b *testing.B) {
	build := func() *circuit.Circuit { return bench.Random(70, 1438, 1) }
	b.Run("baseline", func(b *testing.B) {
		benchCompile(b, build, func() *compiler.Compiler { return baseline.New() })
	})
	b.Run("optimized", func(b *testing.B) {
		benchCompile(b, build, func() *compiler.Compiler { return core.New() })
	})
}

// BenchmarkTableIII isolates the compile-time overhead artifact on the two
// largest circuits (QFT and QuadraticForm, 3000-4000 gates — the cases the
// paper uses to argue tractability, Section IV-D).
func BenchmarkTableIII(b *testing.B) {
	for _, spec := range bench.Catalog() {
		if spec.Name != "QFT" && spec.Name != "QuadraticForm" {
			continue
		}
		spec := spec
		b.Run(spec.Name+"/baseline", func(b *testing.B) {
			benchCompile(b, spec.Build, func() *compiler.Compiler { return baseline.New() })
		})
		b.Run(spec.Name+"/optimized", func(b *testing.B) {
			benchCompile(b, spec.Build, func() *compiler.Compiler { return core.New() })
		})
	}
}

// ---- Fig. 8: fidelity pipeline --------------------------------------------

// BenchmarkFigure8 measures the full compile+simulate pipeline that
// produces one Fig. 8 bar, and reports the improvement factor as a custom
// metric.
func BenchmarkFigure8(b *testing.B) {
	for _, spec := range bench.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			c := spec.Build()
			cfg := machine.PaperL6()
			params := sim.DefaultParams()
			imp := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb, err := baseline.New().CompileContext(b.Context(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ro, err := core.New().CompileContext(b.Context(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				sb, err := sim.SimulateContext(b.Context(), cfg, rb.InitialPlacement, rb.Ops, params)
				if err != nil {
					b.Fatal(err)
				}
				so, err := sim.SimulateContext(b.Context(), cfg, ro.InitialPlacement, ro.Ops, params)
				if err != nil {
					b.Fatal(err)
				}
				imp = so.LogFidelity - sb.LogFidelity
			}
			b.ReportMetric(imp, "logFidelityGain/op")
		})
	}
}

// ---- Ablations: design-choice benchmarks ----------------------------------

// BenchmarkAblationProximity sweeps the gate-proximity parameter
// (Section III-A3 argues 6 is a sweet spot: "not too low... not too
// high").
func BenchmarkAblationProximity(b *testing.B) {
	c := bench.Random(70, 1438, 1)
	cfg := machine.PaperL6()
	for _, prox := range []int{1, 3, 6, 12, -1} {
		prox := prox
		name := fmt.Sprintf("proximity=%d", prox)
		if prox == -1 {
			name = "proximity=unbounded"
		}
		b.Run(name, func(b *testing.B) {
			shuttles := 0
			for i := 0; i < b.N; i++ {
				res, err := core.NewWithOptions(core.Options{Proximity: prox}).CompileContext(b.Context(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				shuttles = res.Shuttles
			}
			b.ReportMetric(float64(shuttles), "shuttles/op")
		})
	}
}

// BenchmarkAblationHeuristics toggles each of the three optimizations
// individually, attributing the Table II savings.
func BenchmarkAblationHeuristics(b *testing.B) {
	c := bench.Random(70, 1438, 1)
	cfg := machine.PaperL6()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-future-ops", core.Options{DisableFutureOps: true}},
		{"no-reorder", core.Options{DisableReorder: true}},
		{"no-nn-rebalance", core.Options{DisableNNRebalance: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			shuttles := 0
			for i := 0; i < b.N; i++ {
				res, err := core.NewWithOptions(v.opts).CompileContext(b.Context(), c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				shuttles = res.Shuttles
			}
			b.ReportMetric(float64(shuttles), "shuttles/op")
		})
	}
}

// BenchmarkQASM measures the parser on the largest benchmark, exercising
// the serialization substrate end to end.
func BenchmarkQASM(b *testing.B) {
	src, err := WriteQASMString(bench.QFT64())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseQASM("qft", src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Optimality gap & mapping ablations ------------------------------------

// BenchmarkExactOptimalityGap measures the exact solver on a tiny instance
// and reports the heuristics' shuttle counts next to the optimum —
// the Section IV-E1 heuristic-vs-exact trade-off made concrete.
func BenchmarkExactOptimalityGap(b *testing.B) {
	c := bench.Random(6, 12, 3)
	native, err := circuit.Decompose(c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 1}
	placement := [][]int{{0, 1}, {2, 3}, {4, 5}}
	optimum := 0
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := exact.MinShuttles(native, cfg, placement)
			if err != nil {
				b.Fatal(err)
			}
			optimum = v
		}
		b.ReportMetric(float64(optimum), "shuttles/op")
	})
	b.Run("optimized", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			res, err := core.New().CompileMappedContext(b.Context(), native, cfg, placement)
			if err != nil {
				b.Fatal(err)
			}
			s = res.Shuttles
		}
		b.ReportMetric(float64(s), "shuttles/op")
	})
	b.Run("baseline", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			res, err := baseline.New().CompileMappedContext(b.Context(), native, cfg, placement)
			if err != nil {
				b.Fatal(err)
			}
			s = res.Shuttles
		}
		b.ReportMetric(float64(s), "shuttles/op")
	})
}

// BenchmarkAblationMapping compares initial-mapping policies
// (Section IV-E3) under the optimized compiler on a mid-size workload.
func BenchmarkAblationMapping(b *testing.B) {
	c := bench.Random(64, 1200, 9)
	cfg := machine.PaperL6()
	mappers := []compiler.Placement{
		compiler.GreedyMapper{},
		compiler.RoundRobinMapper{},
		compiler.RandomMapper{Seed: 1},
		compiler.RefinedMapper{},
	}
	for _, m := range mappers {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				res, err := core.New().CompileWithMapperContext(b.Context(), c, cfg, m)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Shuttles
			}
			b.ReportMetric(float64(s), "shuttles/op")
		})
	}
}

// BenchmarkAblationCooling compares the fidelity pipeline with and without
// sympathetic re-cooling (a model knob the paper's setup leaves off).
func BenchmarkAblationCooling(b *testing.B) {
	c := bench.Random(64, 1200, 9)
	cfg := machine.PaperL6()
	res, err := core.New().CompileContext(b.Context(), c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, cool := range []bool{false, true} {
		cool := cool
		name := "no-cooling"
		if cool {
			name = "cooling"
		}
		b.Run(name, func(b *testing.B) {
			params := sim.DefaultParams()
			if cool {
				params.Cooling = sim.DefaultCooling()
			}
			logF := 0.0
			for i := 0; i < b.N; i++ {
				rep, err := sim.SimulateContext(b.Context(), cfg, res.InitialPlacement, res.Ops, params)
				if err != nil {
					b.Fatal(err)
				}
				logF = rep.LogFidelity
			}
			b.ReportMetric(logF, "logFidelity/op")
		})
	}
}

// ---- Pipeline API benchmarks ----------------------------------------------

// BenchmarkPipelineCompileQFT16 measures the Pipeline entry point on the
// quickstart workload — the perf trajectory baseline for the public API
// (registry lookup + context plumbing must stay in the noise next to the
// compile itself).
func BenchmarkPipelineCompileQFT16(b *testing.B) {
	p, err := NewPipeline()
	if err != nil {
		b.Fatal(err)
	}
	c := QFT(16)
	ctx := context.Background()
	b.ResetTimer()
	shuttles := 0
	for i := 0; i < b.N; i++ {
		res, err := p.Compile(ctx, c)
		if err != nil {
			b.Fatal(err)
		}
		shuttles = res.Shuttles
	}
	b.ReportMetric(float64(shuttles), "shuttles/op")
}

// BenchmarkPipelineEvaluateRandom8 measures a full streaming evaluation run
// (both compilers + simulation, worker pool) over the first 8 random
// circuits.
func BenchmarkPipelineEvaluateRandom8(b *testing.B) {
	p, err := NewPipeline(WithRandomLimit(8))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := p.EvaluateRandom(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 8 {
			b.Fatalf("got %d results", len(results))
		}
	}
}
