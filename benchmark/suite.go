package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
	"muzzle/internal/verify"
)

// suiteEval is the random-suite-eval workload: the paper's 120-circuit
// evaluation (the Table II Random row and Fig. 8), run suite after suite.
// Suite 0 is the reference: the paper's suite itself, the same for every
// seed, over which the quality metrics are computed. Suite k > 0 is drawn
// with the paper's statistics and seeded seed+k-1. Each suite runs through
// eval's worker pool at one worker per CPU, uncached and with the schedule
// verifier on, so compile, verify and simulate share the CPUs and pool
// balance at the end of each suite matters. Suites run in a closed loop
// that continues across phases; a suite is generated just before it runs,
// outside the timed interval, so only one seeded suite's circuits are
// alive at a time.
type suiteEval struct {
	cfg    config
	opt    eval.Options
	params bench.RandomSuiteParams
	ref    []*circuit.Circuit // the reference suite, built by setup
	next   int                // index of the next suite to run

	// head holds the outcomes of suites 0 and 1, which every run
	// evaluates: suite 0's give the quality metrics, both the checksum.
	head [2][]circuitOutcome
}

// circuitOutcome is the deterministic summary of one evaluated circuit.
type circuitOutcome struct {
	ok                bool
	baseShut, optShut int
	baseLogF, optLogF float64
}

func newSuiteEval(cfg config) workload { return &suiteEval{cfg: cfg} }

func (w *suiteEval) setup(context.Context) error {
	w.params = bench.DefaultRandomSuiteParams()
	if w.cfg.small {
		w.params = bench.RandomSuiteParams{Sizes: []int{12, 16}, PerSize: 2, GatesMean: 60, GatesStd: 10, MinGates: 20, MaxGates: 120, Seed: referenceSeed}
	}
	w.ref = bench.RandomSuite(w.params)
	w.opt = eval.Options{
		Config:      machine.PaperL6(),
		Sim:         sim.DefaultParams(),
		Parallelism: runtime.NumCPU(),
		Verify:      true,
	}
	return nil
}

// suite returns the k-th suite: the reference suite for k = 0.
func (w *suiteEval) suite(k int) []*circuit.Circuit {
	if k == 0 {
		return w.ref
	}
	p := w.params
	p.Seed = w.cfg.seed + int64(k-1)
	return bench.RandomSuite(p)
}

// warmup evaluates the first circuits of the reference suite, so the
// timed loop starts with a grown heap and started workers.
func (w *suiteEval) warmup(ctx context.Context) error {
	_, err := eval.RunAll(ctx, w.ref[:min(24, len(w.ref))], w.opt)
	return err
}

// measure evaluates suites until d has passed, starting another only
// while at least half a suite's mean time remains, so a run lasts about d
// on average; the first phase evaluates at least suites 0 and 1.
func (w *suiteEval) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	var lat []float64
	start := time.Now()
	for n := 0; w.head[1] == nil || n == 0 || time.Since(start)+time.Since(start)/time.Duration(2*n) < d; n++ {
		idx := w.next
		w.next++
		circuits := w.suite(idx)
		t0 := time.Now()
		var out []circuitOutcome
		if tr == nil {
			out, lat = w.runSuite(ctx, circuits, lat)
		} else {
			out, lat = w.runSuiteTraced(ctx, tr, idx, circuits, lat)
		}
		ph.elapsed += time.Since(t0)
		for _, o := range out {
			ph.ops++
			if !o.ok {
				ph.failed++
			}
		}
		if idx < len(w.head) {
			w.head[idx] = out
		}
	}
	ph.p50, ph.p90 = percentile(lat, 0.5), percentile(lat, 0.9)
	if tr != nil {
		lt := newLayerTimes(tr.snapshot())
		circ := sum(lt.dur["eval.circuit"])
		ph.layer = map[string]float64{
			"verify.ms_p50":       percentile(lt.dur["verify.result"], 0.5),
			"verify.share":        sum(lt.dur["verify.result"]) / circ,
			"sim.ms_p50":          percentile(lt.dur["sim.simulate"], 0.5),
			"sim.share":           sum(lt.dur["sim.simulate"]) / circ,
			"eval.circuit_ms_p50": percentile(lt.dur["eval.circuit"], 0.5),
			"eval.circuit_ms_p99": percentile(lt.dur["eval.circuit"], 0.99),
			"eval.busy_frac":      circ / (ms(ph.elapsed) * float64(w.opt.Parallelism)),
		}
	}
	return ph, nil
}

// runSuite evaluates one suite through eval.Stream — the pool RunAll
// drains — timing each circuit from its start event to its completion
// event, and keeps only each result's summary so a suite's operation
// traces can be freed as soon as they are read.
func (w *suiteEval) runSuite(ctx context.Context, circuits []*circuit.Circuit, lat []float64) ([]circuitOutcome, []float64) {
	starts := make([]time.Time, len(circuits))
	opt := w.opt
	opt.OnEvent = func(ev eval.Event) {
		switch ev.Kind {
		case eval.EventStarted:
			starts[ev.Index] = time.Now()
		case eval.EventCompleted, eval.EventFailed:
			lat = append(lat, ms(time.Since(starts[ev.Index])))
		}
	}
	out := make([]circuitOutcome, len(circuits))
	for item := range eval.Stream(ctx, circuits, opt) {
		if item.Err != nil {
			continue
		}
		base, o := item.Result.Pair()
		out[item.Index] = circuitOutcome{ok: true,
			baseShut: base.Result.Shuttles, optShut: o.Result.Shuttles,
			baseLogF: base.Sim.LogFidelity, optLogF: o.Sim.LogFidelity}
	}
	return out, lat
}

// runSuiteTraced evaluates one suite with a pool shaped like eval.Stream's
// (one worker per CPU pulling circuits in order), performing RunCircuit's
// per-compiler steps as separate public calls — CompileContext,
// verify.Result, sim.SimulateContext — each in its own span under one
// eval.circuit span per circuit.
func (w *suiteEval) runSuiteTraced(ctx context.Context, tr *tracer, suite int, circuits []*circuit.Circuit, lat []float64) ([]circuitOutcome, []float64) {
	out := make([]circuitOutcome, len(circuits))
	jobs := make(chan int, len(circuits))
	for i := range circuits {
		jobs <- i
	}
	close(jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < min(w.opt.Parallelism, len(circuits)); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				out[i] = w.evalTraced(ctx, tr, circuits[i], fmt.Sprintf("s%d.c%d", suite, i))
				mu.Lock()
				lat = append(lat, ms(time.Since(t0)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, lat
}

func (w *suiteEval) evalTraced(ctx context.Context, tr *tracer, c *circuit.Circuit, req string) circuitOutcome {
	root := tr.newID()
	t0 := time.Now()
	defer func() { tr.record(root, 0, "eval.circuit", req, t0, time.Now()) }()
	var o circuitOutcome
	for _, name := range eval.DefaultCompilers() {
		factory, err := registry.Lookup(name)
		if err != nil {
			return o
		}
		a := time.Now()
		res, err := factory().CompileContext(ctx, c, w.opt.Config)
		b := time.Now()
		tr.add(root, "compiler.compile", req, a, b)
		if err != nil {
			return o
		}
		vs := verify.Result(res)
		v := time.Now()
		tr.add(root, "verify.result", req, b, v)
		if len(vs) > 0 {
			return o
		}
		rep, err := sim.SimulateContext(ctx, w.opt.Config, res.InitialPlacement, res.Ops, w.opt.Sim)
		tr.add(root, "sim.simulate", req, v, time.Now())
		if err != nil {
			return o
		}
		if name == registry.Optimized {
			o.optShut, o.optLogF = res.Shuttles, rep.LogFidelity
		} else {
			o.baseShut, o.baseLogF = res.Shuttles, rep.LogFidelity
		}
	}
	o.ok = true
	return o
}

func (w *suiteEval) quality() quality {
	var q quality
	var gains []float64
	var parts []any
	for k, suite := range w.head {
		for _, o := range suite {
			if k == 0 {
				q.optShuttles += o.optShut
				gains = append(gains, log10Gain(o.optLogF, o.baseLogF))
			}
			parts = append(parts, o)
		}
	}
	q.fig8 = mean(gains)
	q.checksum = checksum(parts...)
	return q
}

// check has nothing to add: every schedule passed the verifier, or its
// circuit counts as failed.
func (w *suiteEval) check(context.Context) error { return nil }

func (w *suiteEval) close() {}
