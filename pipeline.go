package muzzle

import (
	"context"
	"fmt"

	"muzzle/internal/bench"
	"muzzle/internal/eval"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
)

// Pipeline is the primary entry point of the package: an immutable,
// goroutine-safe bundle of hardware model, compiler set, simulator
// constants, and evaluation policy, assembled once with functional options
// and reused across compilations and evaluation runs.
//
//	p, err := muzzle.NewPipeline(
//		muzzle.WithMachine(muzzle.PaperMachine()),
//		muzzle.WithCompilers("baseline", "optimized"),
//		muzzle.WithParallelism(8),
//	)
//	res, err := p.Compile(ctx, muzzle.QFT(16))
//	results, err := p.EvaluateNISQ(ctx)
//
// The zero-option NewPipeline() reproduces the paper's evaluation setup
// exactly: the L6 machine, the baseline/optimized compiler pair, the
// default simulator constants, and the 120-circuit random suite. All
// methods honor context cancellation down to the compiler scheduling loop.
type Pipeline struct {
	opt     eval.Options
	primary string
	// randomSeed, when set, overrides the random-suite seed regardless of
	// the order WithRandomSeed and WithRandomSuite were applied in.
	randomSeed *int64
}

// PipelineOption configures a Pipeline under construction. Options report
// invalid values as errors from NewPipeline rather than panicking.
type PipelineOption func(*Pipeline) error

// NewPipeline builds a Pipeline from functional options; with no options it
// reproduces the paper's setup. Unknown compiler names and invalid values
// fail here, not at first use.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	p := &Pipeline{opt: eval.DefaultOptions()}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	for _, name := range p.compilerNames() {
		if !registry.Has(name) {
			return nil, newErrorf(ErrUnknownCompiler, "NewPipeline",
				"compiler %q is not registered (registered: %v)", name, registry.Names())
		}
	}
	if p.primary == "" {
		p.primary = p.defaultPrimary()
	}
	if p.randomSeed != nil {
		p.opt.Random.Seed = *p.randomSeed
	}
	return p, nil
}

func (p *Pipeline) compilerNames() []string {
	if len(p.opt.Compilers) == 0 {
		return eval.DefaultCompilers()
	}
	return p.opt.Compilers
}

// defaultPrimary picks the compiler Compile uses when none is named: the
// paper's optimized compiler when configured, else the first in order.
func (p *Pipeline) defaultPrimary() string {
	names := p.compilerNames()
	for _, n := range names {
		if n == registry.Optimized {
			return n
		}
	}
	return names[0]
}

// WithMachine sets the hardware model (default: the paper's L6 machine).
func WithMachine(cfg MachineConfig) PipelineOption {
	return func(p *Pipeline) error {
		if err := cfg.Validate(); err != nil {
			return newError(ErrBadOption, "WithMachine", err)
		}
		p.opt.Config = cfg
		return nil
	}
}

// WithCompilers selects the registered compilers evaluation runs compare,
// in column order (default: "baseline", "optimized"). The first name —
// or "optimized", when listed — also becomes the compiler Compile uses.
func WithCompilers(names ...string) PipelineOption {
	return func(p *Pipeline) error {
		if len(names) == 0 {
			return newErrorf(ErrBadOption, "WithCompilers", "at least one compiler name required")
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				return newErrorf(ErrBadOption, "WithCompilers", "compiler %q listed twice", n)
			}
			seen[n] = true
		}
		p.opt.Compilers = append([]string(nil), names...)
		return nil
	}
}

// WithSimParams sets the simulator model constants (default: the paper's).
func WithSimParams(params SimParams) PipelineOption {
	return func(p *Pipeline) error {
		for _, err := range []error{
			params.Time.Validate(),
			params.Heating.Validate(),
			params.Fidelity.Validate(),
			params.Cooling.Validate(),
		} {
			if err != nil {
				return newError(ErrBadOption, "WithSimParams", err)
			}
		}
		p.opt.Sim = params
		return nil
	}
}

// WithMapper replaces the default greedy initial-mapping policy.
func WithMapper(m Placement) PipelineOption {
	return func(p *Pipeline) error {
		if m == nil {
			return newErrorf(ErrBadOption, "WithMapper", "mapper must not be nil")
		}
		p.opt.Mapper = m
		return nil
	}
}

// WithParallelism bounds concurrent circuit evaluations (default: one per
// CPU).
func WithParallelism(n int) PipelineOption {
	return func(p *Pipeline) error {
		if n < 0 {
			return newErrorf(ErrBadOption, "WithParallelism", "parallelism %d must be >= 0", n)
		}
		p.opt.Parallelism = n
		return nil
	}
}

// WithProgress installs a typed progress callback receiving one EvalEvent
// per circuit start, completion, and failure during evaluation runs.
// Multiple WithProgress options compose: every callback receives every
// event, in the order the options were given (the muzzled service relies
// on this to add its latency observer next to an operator's hook).
// Callbacks are never invoked concurrently with themselves.
func WithProgress(fn func(EvalEvent)) PipelineOption {
	return func(p *Pipeline) error {
		if fn == nil {
			return newErrorf(ErrBadOption, "WithProgress", "callback must not be nil")
		}
		if prev := p.opt.OnEvent; prev != nil {
			p.opt.OnEvent = func(ev EvalEvent) {
				prev(ev)
				fn(ev)
			}
			return nil
		}
		p.opt.OnEvent = fn
		return nil
	}
}

// WithRandomSuite overrides the random benchmark suite statistics
// (default: the paper's 120-circuit suite).
func WithRandomSuite(params RandomSuiteParams) PipelineOption {
	return func(p *Pipeline) error {
		p.opt.Random = params
		return nil
	}
}

// WithRandomSeed re-seeds the random benchmark suite so callers can draw
// reproducible variant suites; the default (and a seed equal to
// DefaultRandomSuiteParams().Seed) preserves the paper's 120 circuits
// exactly. The seed applies to the suite params in effect when the
// pipeline is built, so it composes with WithRandomSuite in either order.
func WithRandomSeed(seed int64) PipelineOption {
	return func(p *Pipeline) error {
		p.randomSeed = &seed
		return nil
	}
}

// WithRandomLimit evaluates only the first n random circuits (0 = all).
func WithRandomLimit(n int) PipelineOption {
	return func(p *Pipeline) error {
		if n < 0 {
			return newErrorf(ErrBadOption, "WithRandomLimit", "limit %d must be >= 0", n)
		}
		p.opt.RandomLimit = n
		return nil
	}
}

// Compilers returns the pipeline's compiler names in evaluation order.
func (p *Pipeline) Compilers() []string {
	return append([]string(nil), p.compilerNames()...)
}

// Machine returns the pipeline's hardware model.
func (p *Pipeline) Machine() MachineConfig { return p.opt.Config }

// Compile compiles a circuit with the pipeline's primary compiler
// ("optimized" when configured, else the first of WithCompilers).
func (p *Pipeline) Compile(ctx context.Context, c *Circuit) (*CompileResult, error) {
	return p.compileWith(ctx, "Pipeline.Compile", p.primary, c)
}

// CompileWith compiles a circuit with a specific registered compiler,
// which need not be one of the pipeline's evaluation set.
func (p *Pipeline) CompileWith(ctx context.Context, compilerName string, c *Circuit) (*CompileResult, error) {
	return p.compileWith(ctx, "Pipeline.CompileWith", compilerName, c)
}

func (p *Pipeline) compileWith(ctx context.Context, op, compilerName string, c *Circuit) (*CompileResult, error) {
	factory, err := registry.Lookup(compilerName)
	if err != nil {
		return nil, newError(ErrUnknownCompiler, op, err)
	}
	comp := factory()
	var res *CompileResult
	if p.opt.Mapper != nil {
		res, err = comp.CompileWithMapperContext(ctx, c, p.opt.Config, p.opt.Mapper)
	} else {
		res, err = comp.CompileContext(ctx, c, p.opt.Config)
	}
	if err != nil {
		return nil, wrapErr(ErrCompile, op, fmt.Errorf("%s: %s: %w", compilerName, c.Name, err))
	}
	return res, nil
}

// Simulate replays a compiled program under the pipeline's simulator
// constants.
func (p *Pipeline) Simulate(ctx context.Context, res *CompileResult) (*SimReport, error) {
	rep, err := sim.SimulateContext(ctx, res.Config, res.InitialPlacement, res.Ops, p.opt.Sim)
	if err != nil {
		return nil, wrapErr(ErrSimulate, "Pipeline.Simulate", err)
	}
	return rep, nil
}

// Evaluate runs every configured compiler over the circuits concurrently
// and simulates each trace, preserving input order. On failure it still
// returns every completed circuit's result (failed circuits omitted)
// together with a structured error joining all failures; a canceled run
// reports ErrCanceled and satisfies errors.Is(err, context.Canceled).
func (p *Pipeline) Evaluate(ctx context.Context, circuits []*Circuit) ([]*EvalResult, error) {
	results, err := eval.RunAll(ctx, circuits, p.opt)
	return results, wrapErr(ErrEvaluate, "Pipeline.Evaluate", err)
}

// EvaluateStream evaluates circuits concurrently, delivering one EvalItem
// per circuit in completion order and closing the channel when the run
// ends. On cancellation, unstarted circuits produce no item; in-flight ones
// abort promptly. The channel is buffered for the whole run, so an
// abandoned consumer never wedges the workers.
func (p *Pipeline) EvaluateStream(ctx context.Context, circuits []*Circuit) <-chan EvalItem {
	return eval.Stream(ctx, circuits, p.opt)
}

// EvaluateCircuit evaluates a single circuit under every configured
// compiler.
func (p *Pipeline) EvaluateCircuit(ctx context.Context, c *Circuit) (*EvalResult, error) {
	r, err := eval.RunCircuit(ctx, c, p.opt)
	if err != nil {
		return nil, wrapErr(ErrEvaluate, "Pipeline.EvaluateCircuit", err)
	}
	return r, nil
}

// EvaluateNISQ evaluates the paper's five NISQ benchmarks (Table II rows).
func (p *Pipeline) EvaluateNISQ(ctx context.Context) ([]*EvalResult, error) {
	results, err := eval.RunNISQ(ctx, p.opt)
	return results, wrapErr(ErrEvaluate, "Pipeline.EvaluateNISQ", err)
}

// EvaluateRandom evaluates the random benchmark suite (honoring
// WithRandomLimit).
func (p *Pipeline) EvaluateRandom(ctx context.Context) ([]*EvalResult, error) {
	results, err := eval.RunRandom(ctx, p.opt)
	return results, wrapErr(ErrEvaluate, "Pipeline.EvaluateRandom", err)
}

// RandomCircuits returns the pipeline's random suite, honoring
// WithRandomSuite and WithRandomLimit — the circuit list EvaluateRandom
// runs, for callers driving EvaluateStream directly.
func (p *Pipeline) RandomCircuits() []*Circuit {
	circuits := bench.RandomSuite(p.opt.Random)
	if p.opt.RandomLimit > 0 && p.opt.RandomLimit < len(circuits) {
		circuits = circuits[:p.opt.RandomLimit]
	}
	return circuits
}

// EvalEvent is a typed progress notification delivered to WithProgress
// callbacks: a start, completion, or failure of one circuit.
type EvalEvent = eval.Event

// Event kinds delivered to WithProgress callbacks.
const (
	// EvalStarted fires when a worker picks up a circuit.
	EvalStarted = eval.EventStarted
	// EvalCompleted fires when a circuit finishes (Result set).
	EvalCompleted = eval.EventCompleted
	// EvalFailed fires when a circuit errors (Err set).
	EvalFailed = eval.EventFailed
)

// EvalItem is one streamed per-circuit outcome of EvaluateStream: either
// Result or Err is set.
type EvalItem = eval.ItemResult

// EvalOutcome is the summary of one compiler's result on one circuit: the
// compilation's counters, policy names and compile time, and the simulator
// report. Its Result carries no trace (Ops, Order and InitialPlacement are
// nil), so trace exports reject it; compile the circuit with
// Pipeline.Compile for a trace.
type EvalOutcome = eval.Outcome

// RandomSuiteParams are the random benchmark suite statistics
// (Section IV-A: 120 circuits, 30-90 qubits).
type RandomSuiteParams = bench.RandomSuiteParams

// DefaultRandomSuiteParams returns the paper's random-suite statistics.
func DefaultRandomSuiteParams() RandomSuiteParams { return bench.DefaultRandomSuiteParams() }

// RandomSuiteCircuits builds the random benchmark suite for the given
// statistics.
func RandomSuiteCircuits(params RandomSuiteParams) []*Circuit {
	return bench.RandomSuite(params)
}

// FormatCompilerMatrix renders one row per circuit with a shuttle-count
// column for every compiler of the run — the N-compiler generalization of
// Table II for pipelines with registry-added compilers.
func FormatCompilerMatrix(results []*EvalResult) string { return eval.Matrix(results) }
