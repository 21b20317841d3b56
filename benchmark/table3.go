package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
	"muzzle/internal/verify"
)

// table2Golden holds the paper's Table II shuttle counts as this
// repository reproduces them: circuit -> compiler -> MOVE count.
//
//go:embed testdata/table2_shuttles.json
var table2Golden []byte

// table3 is the table3-compile workload: Table III's ten programs (five
// NISQ circuits x baseline/optimized) compiled through
// Compiler.CompileContext on the paper's L6 machine, back to back on one
// goroutine. Nearly all the time is the compiler's front end and engine;
// no simulator, cache or service runs in the loop.
type table3 struct {
	cfg   machine.Config
	pairs []*compilePair

	checkErr error
	fig8     float64
	sum      string
}

type compilePair struct {
	circuit, compiler string
	c                 *circuit.Circuit
	comp              *compiler.Compiler
	want              int // golden shuttle count
	shuttles          int // measured in the warm-up
}

func newTable3(config) workload { return &table3{} }

func (w *table3) setup(context.Context) error {
	var golden map[string]map[string]int
	if err := json.Unmarshal(table2Golden, &golden); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	w.cfg = machine.PaperL6()
	for _, spec := range bench.Catalog() {
		c := spec.Build()
		for _, name := range paperCompilers {
			factory, err := registry.Lookup(name)
			if err != nil {
				return err
			}
			want, ok := golden[spec.Name][name]
			if !ok {
				return fmt.Errorf("golden has no %s/%s", spec.Name, name)
			}
			w.pairs = append(w.pairs, &compilePair{circuit: spec.Name, compiler: name, c: c, comp: factory(), want: want})
		}
	}
	return nil
}

// warmup compiles every program once, replays each schedule through the
// independent verifier, compares the shuttle counts with the golden and
// simulates both schedules of each circuit for the Fig. 8 factor.
func (w *table3) warmup(ctx context.Context) error {
	var parts []any
	gains := map[string]float64{}
	for _, p := range w.pairs {
		res, err := p.comp.CompileContext(ctx, p.c, w.cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", p.circuit, p.compiler, err)
		}
		if vs := verify.Result(res); len(vs) > 0 {
			w.checkErr = fmt.Errorf("%s/%s: %d verifier violations, first: %v", p.circuit, p.compiler, len(vs), vs[0])
		}
		if res.Shuttles != p.want {
			w.checkErr = fmt.Errorf("%s/%s: %d shuttles, golden %d", p.circuit, p.compiler, res.Shuttles, p.want)
		}
		rep, err := sim.SimulateContext(ctx, res.Config, res.InitialPlacement, res.Ops, sim.DefaultParams())
		if err != nil {
			return fmt.Errorf("%s/%s sim: %w", p.circuit, p.compiler, err)
		}
		p.shuttles = res.Shuttles
		parts = append(parts, p.circuit, p.compiler, res.Shuttles, rep.LogFidelity)
		if p.compiler == "optimized" {
			gains[p.circuit] += rep.LogFidelity
		} else {
			gains[p.circuit] -= rep.LogFidelity
		}
	}
	for _, c := range paperCircuits {
		w.fig8 += log10Gain(gains[c], 0) / float64(len(paperCircuits))
	}
	w.sum = checksum(parts...)
	return nil
}

func (w *table3) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	samples := make([][]float64, len(w.pairs))
	var ph phase
	start := time.Now()
	for round := 0; time.Since(start) < d || round == 0; round++ {
		t0 := time.Now()
		for i, p := range w.pairs {
			var res *compiler.Result
			var dt time.Duration
			var err error
			if tr == nil {
				t0 := time.Now()
				res, err = p.comp.CompileContext(ctx, p.c, w.cfg)
				dt = time.Since(t0)
			} else {
				res, dt, err = w.compileTraced(ctx, tr, p, fmt.Sprintf("%s.%s#%d", p.circuit, p.compiler, round))
			}
			samples[i] = append(samples[i], ms(dt))
			ph.ops++
			if err != nil || res.Shuttles != p.want {
				ph.failed++
			}
		}
		ph.elapsed += time.Since(t0)
	}
	p50s := make([]float64, len(w.pairs))
	p90s := make([]float64, len(w.pairs))
	for i := range w.pairs {
		p50s[i] = percentile(samples[i], 0.5)
		p90s[i] = percentile(samples[i], 0.9)
	}
	ph.p50, ph.p90 = geomean(p50s), geomean(p90s)
	if tr != nil {
		ph.layer = w.layers(ctx, tr, p50s)
	}
	return ph, nil
}

// compileTraced performs CompileContext's steps as separate public calls
// (Decompose, GreedyPlacement, CompileMappedContext; see
// internal/compiler/engine.go), each in its own span, and returns the
// compile span's duration.
func (w *table3) compileTraced(ctx context.Context, tr *tracer, p *compilePair, req string) (*compiler.Result, time.Duration, error) {
	root := tr.newID()
	t0 := time.Now()
	native, err := circuit.Decompose(p.c)
	t1 := time.Now()
	tr.add(root, "circuit.decompose", req, t0, t1)
	if err != nil {
		return nil, 0, err
	}
	placement, err := compiler.GreedyPlacement(native, w.cfg)
	t2 := time.Now()
	tr.add(root, "compiler.place", req, t1, t2)
	if err != nil {
		return nil, 0, err
	}
	res, err := p.comp.CompileMappedContext(ctx, native, w.cfg, placement)
	t3 := time.Now()
	tr.add(root, "compiler.schedule", req, t2, t3)
	tr.record(root, 0, "compile", req, t0, t3)
	return res, t3.Sub(t0), err
}

// dagReps is how many standalone dag.Build calls per program the traced
// phase times after its rounds.
const dagReps = 5

// layers turns the traced phase's spans into per-layer metrics. The
// scheduler builds its DAG inside CompileMappedContext, so the DAG's cost
// is split out by timing standalone dag.Build calls on each program's
// native circuit after the rounds, where their garbage does not slow the
// timed compiles. The allocation of each step comes from one untimed pass
// measured with runtime.ReadMemStats (allocation is deterministic per
// program, and stopping the world around each step would distort the
// timed spans).
func (w *table3) layers(ctx context.Context, tr *tracer, p50s []float64) map[string]float64 {
	var decompose, dagB, schedule, gates, ops, reorders, rebalances float64
	for _, p := range w.pairs {
		a0 := totalAlloc()
		native, err := circuit.Decompose(p.c)
		a1 := totalAlloc()
		if err != nil {
			continue
		}
		dag.Build(native)
		a2 := totalAlloc()
		for i := 0; i < dagReps; i++ {
			t0 := time.Now()
			dag.Build(native)
			tr.add(0, "dag.build", fmt.Sprintf("%s.%s.dag#%d", p.circuit, p.compiler, i), t0, time.Now())
		}
		placement, err := compiler.GreedyPlacement(native, w.cfg)
		if err != nil {
			continue
		}
		a3 := totalAlloc()
		res, err := p.comp.CompileMappedContext(ctx, native, w.cfg, placement)
		a4 := totalAlloc()
		if err != nil {
			continue
		}
		decompose += float64(a1 - a0)
		dagB += float64(a2 - a1)
		schedule += float64(a4-a3) - float64(a2-a1)
		gates += float64(len(native.Gates))
		ops += float64(len(res.Ops))
		reorders += float64(res.Reorders)
		rebalances += float64(res.Rebalances)
	}
	lt := newLayerTimes(tr.snapshot())
	out := map[string]float64{
		"circuit.decompose_ms": mean(lt.self["circuit.decompose"]),
		"compiler.place_ms":    mean(lt.self["compiler.place"]),
		"dag.build_ms":         mean(lt.self["dag.build"]),
		"compiler.schedule_ms": mean(lt.self["compiler.schedule"]) - mean(lt.self["dag.build"]),
	}
	for i, p := range w.pairs {
		out["compile_ms."+p.circuit+"."+p.compiler] = p50s[i]
	}
	n := float64(len(w.pairs))
	out["circuit.decompose_mb"] = decompose / 1e6 / n
	out["dag.build_mb"] = dagB / 1e6 / n
	out["compiler.schedule_mb"] = schedule / 1e6 / n
	out["circuit.native_gates"] = gates / n
	out["machine.ops_per_compile"] = ops / n
	out["compiler.reorders"] = reorders / n
	out["compiler.rebalances"] = rebalances / n
	return out
}

func (w *table3) quality() quality {
	opt := 0
	for _, p := range w.pairs {
		if p.compiler == "optimized" {
			opt += p.shuttles
		}
	}
	return quality{optShuttles: opt, fig8: w.fig8, checksum: w.sum}
}

func (w *table3) check(context.Context) error { return w.checkErr }

func (w *table3) close() {}
