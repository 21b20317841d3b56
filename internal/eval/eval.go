// Package eval is the experiment harness: it runs a set of registered
// compilers over the paper's benchmark suite and regenerates the evaluation
// artifacts — Table II (shuttle reduction), Fig. 8 (program fidelity
// improvement), and Table III (compilation time overhead).
//
// Compilers are resolved by name from internal/registry, so any compiler
// registered there — the pre-registered "baseline" and "optimized" pair or
// user-supplied variants — participates in a run without changes here. Runs
// are context-aware (cooperative cancellation down to the compiler
// scheduling loop) and stream per-circuit results as they complete; the
// slice-returning entry points are built on the stream and report partial
// results alongside an errors.Join of every failure.
//
// The harness prints the same rows the paper reports; EXPERIMENTS.md pairs
// each with the paper's numbers.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/ckey"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/fidelity"
	"muzzle/internal/flight"
	"muzzle/internal/machine"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
	"muzzle/internal/verify"
)

// Options configure an evaluation run.
type Options struct {
	// Config is the hardware model (paper: L6, capacity 17, comm 2).
	Config machine.Config
	// Sim are the simulator constants for the fidelity estimates.
	Sim sim.Params
	// Random are the random-suite statistics.
	Random bench.RandomSuiteParams
	// RandomLimit, when positive, evaluates only the first N random
	// circuits (used by tests and quick runs); 0 means all 120.
	RandomLimit int
	// Parallelism bounds concurrent circuit evaluations (0 = GOMAXPROCS).
	Parallelism int
	// Compilers lists the registry names to run on every circuit, in
	// column order; nil means the paper's pair {"baseline", "optimized"}.
	Compilers []string
	// Mapper, when non-nil, replaces the default greedy initial mapping.
	Mapper compiler.Placement
	// OnEvent, when non-nil, receives typed progress events (start,
	// completion, failure of each circuit). It is called from worker
	// goroutines but never concurrently with itself.
	OnEvent func(Event)
	// Cache, when non-nil, is consulted before compiling a circuit and
	// filled after a successful evaluation, keyed by circuit content +
	// machine + compiler set + simulator constants. Runs with a custom
	// Mapper bypass the cache (the mapper is not part of the key).
	Cache Cache
	// Flight, when non-nil, coalesces concurrent identical evaluations:
	// callers that miss the cache on the same content key share one
	// compile+simulate execution instead of racing. The group is keyed by
	// the exact key the cache uses (internal/ckey), so any two requests the
	// cache would dedup after the fact coalesce while in flight. Runs with
	// a custom Mapper bypass coalescing for the same reason they bypass the
	// cache: the mapper is not part of the key. The cache (when present) is
	// checked before the group, so cache hits never touch the group's lock.
	Flight *flight.Group[*BenchResult]
	// Verify runs the independent schedule verifier (internal/verify) on
	// every compiled trace before it is simulated; violations fail the
	// circuit with a typed *verify.Error, and a passing result records
	// BenchResult.Verified. The MUZZLE_VERIFY environment variable ("1",
	// "true", "on", "yes") forces it on regardless of this field — a debug
	// backstop for any run reachable through RunCircuit. Verify is not part
	// of the cache key, so a verifying run takes an unverified cache hit
	// (memory or disk) or shared flight result as a miss: it compiles,
	// verifies, and stores its result over the unverified one.
	Verify bool
}

// envVerify reports whether the MUZZLE_VERIFY debug variable forces
// schedule verification on. Read per compile, not cached: the lookup is
// nanoseconds against a compile's milliseconds, and re-reading keeps the
// knob testable and toggleable in long-lived processes.
func envVerify() bool {
	switch os.Getenv("MUZZLE_VERIFY") {
	case "1", "true", "on", "yes":
		return true
	}
	return false
}

// Cache is a read-through store of completed per-circuit results, keyed by
// the canonical content key (internal/ckey) of everything that determines
// the outcome: the circuit content, the machine configuration, the
// compiler set, and the simulator constants. RunCircuit hashes the inputs
// once and uses the same key for the lookup, the fill, and the
// single-flight group. Implementations must be safe for concurrent use;
// cached results are shared between callers and must be treated as
// immutable. internal/cache.LRU satisfies it.
type Cache interface {
	// GetKey returns the cached result stored under a content key.
	GetKey(key string) (*BenchResult, bool)
	// PutKey stores a completed result under a content key.
	PutKey(key string, r *BenchResult)
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{
		Config: machine.PaperL6(),
		Sim:    sim.DefaultParams(),
		Random: bench.DefaultRandomSuiteParams(),
	}
}

// DefaultCompilers is the compiler pair of the paper's evaluation, in the
// order the tables print them.
func DefaultCompilers() []string { return []string{registry.Baseline, registry.Optimized} }

func (o Options) compilerNames() []string {
	if len(o.Compilers) == 0 {
		return DefaultCompilers()
	}
	return o.Compilers
}

// Outcome is the summary of one compiler's result on one circuit: what
// OutcomeJSON carries, no more. The trace is verified and simulated while
// the compiler lends it and is not kept.
type Outcome struct {
	// Compiler is the registry name the outcome belongs to.
	Compiler string
	// Result holds the compilation's counters, policy names and compile
	// time. Its Ops, Order and InitialPlacement are nil and its Circ is a
	// header with only the circuit's name and qubit count; compile with
	// compiler.CompileContext for a trace.
	Result *compiler.Result
	// Sim is the simulator report for the compiled trace.
	Sim *sim.Report
}

// BenchResult holds every configured compiler's outcome on one circuit.
type BenchResult struct {
	// Name is the circuit name.
	Name string
	// Qubits and Gates2Q describe the circuit (2Q count after
	// decomposition to the native set).
	Qubits, Gates2Q int
	// Compilers lists the registry names evaluated, in run order.
	Compilers []string
	// Outcomes maps each compiler name to its outcome.
	Outcomes map[string]*Outcome
	// Verified records that every outcome passed the independent schedule
	// verifier (internal/verify).
	Verified bool
}

// satisfies reports whether r may serve a caller that does or does not
// ask for verification.
func (r *BenchResult) satisfies(wantVerify bool) bool { return r.Verified || !wantVerify }

// Outcome returns the named compiler's outcome, or nil if the compiler was
// not part of the run.
func (r *BenchResult) Outcome(name string) *Outcome { return r.Outcomes[name] }

// Pair returns the reference (baseline, optimized) outcome pair the paper's
// artifacts compare: the registered names "baseline" and "optimized" when
// both ran, otherwise the first two compilers in run order (or the same
// outcome twice when only one compiler ran).
func (r *BenchResult) Pair() (base, opt *Outcome) {
	if b, o := r.Outcomes[registry.Baseline], r.Outcomes[registry.Optimized]; b != nil && o != nil {
		return b, o
	}
	if len(r.Compilers) == 0 {
		return nil, nil
	}
	base = r.Outcomes[r.Compilers[0]]
	opt = base
	if len(r.Compilers) > 1 {
		opt = r.Outcomes[r.Compilers[1]]
	}
	return base, opt
}

// Reduction returns the absolute and percentage shuttle reduction of the
// reference pair.
func (r *BenchResult) Reduction() (delta int, pct float64) {
	base, opt := r.Pair()
	if base == nil || opt == nil {
		return 0, 0
	}
	delta = base.Result.Shuttles - opt.Result.Shuttles
	if base.Result.Shuttles > 0 {
		pct = 100 * float64(delta) / float64(base.Result.Shuttles)
	}
	return delta, pct
}

// Improvement returns the program-fidelity improvement factor (Fig. 8's X)
// of the reference pair.
func (r *BenchResult) Improvement() float64 {
	base, opt := r.Pair()
	if base == nil || opt == nil {
		return 1
	}
	return fidelity.Improvement(opt.Sim.LogFidelity, base.Sim.LogFidelity)
}

// RunCircuit evaluates one circuit under every configured compiler and the
// simulator. The input circuit is not modified. When Options.Cache is set
// (and no custom Mapper is installed), a cached result is returned without
// invoking any compiler, and fresh results are stored on the way out. When
// Options.Flight is also set, concurrent callers that miss the cache on the
// same content key share a single execution. A verifying caller accepts a
// cached or shared result only if it is Verified.
func RunCircuit(ctx context.Context, c *circuit.Circuit, opt Options) (*BenchResult, error) {
	names := opt.compilerNames()
	useCache := opt.Cache != nil && opt.Mapper == nil
	useFlight := opt.Flight != nil && opt.Mapper == nil
	wantVerify := opt.Verify || envVerify()

	var key string
	if useCache || useFlight {
		key = ckey.Key(c, opt.Config, names, opt.Sim)
	}
	if useCache {
		if r, ok := opt.Cache.GetKey(key); ok && r.satisfies(wantVerify) {
			return r, nil
		}
	}
	if !useFlight {
		return compileAll(ctx, c, opt, names, key, useCache, wantVerify)
	}
	r, shared, err := opt.Flight.Do(ctx, key, func(ctx context.Context) (*BenchResult, error) {
		// A previous leader may have filled the cache between this caller's
		// miss above and its promotion to leader; re-checking here keeps the
		// miss→promotion race from paying a second compile.
		if useCache {
			if r, ok := opt.Cache.GetKey(key); ok && r.satisfies(wantVerify) {
				return r, nil
			}
		}
		return compileAll(ctx, c, opt, names, key, useCache, wantVerify)
	})
	if err != nil {
		return nil, err
	}
	// A shared result was produced under the leader's options, which may
	// not have verified: the same situation as an unverified cache hit.
	if shared && !r.satisfies(wantVerify) {
		return compileAll(ctx, c, opt, names, key, useCache, wantVerify)
	}
	return r, nil
}

// compileAll runs every configured compiler and the simulator on c and
// fills the cache on success — the single-execution body behind both the
// direct and the coalesced paths of RunCircuit. Each compile lends its trace
// to be verified (when asked) and simulated, and only the summary is kept.
// The outcomes are built through the ResultJSON schema, so a fresh result
// equals what EncodeResult and BenchResult make of it, as a disk-tier hit
// does.
func compileAll(ctx context.Context, c *circuit.Circuit, opt Options, names []string, key string, useCache, wantVerify bool) (*BenchResult, error) {
	r := &BenchResult{
		Name:      c.Name,
		Qubits:    c.NumQubits,
		Gates2Q:   bench.Count2QNative(c),
		Compilers: names,
		Outcomes:  make(map[string]*Outcome, len(names)),
		Verified:  wantVerify,
	}
	var fe frontEnd
	for _, name := range names {
		factory, err := registry.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("eval %s: %w", c.Name, err)
		}
		var lentErr error // a verify or sim failure, already attributed
		err = compileOne(ctx, c, opt, &fe, factory(), func(res *compiler.Result) error {
			if wantVerify {
				if vs := verify.Result(res); len(vs) > 0 {
					lentErr = &verify.Error{Circuit: c.Name, Compiler: name, Violations: vs}
					return lentErr
				}
			}
			rep, err := sim.SimulateContext(ctx, opt.Config, res.InitialPlacement, res.Ops, opt.Sim)
			if err != nil {
				lentErr = fmt.Errorf("%s sim: %w", name, err)
				return lentErr
			}
			r.Outcomes[name] = encodeOutcome(name, res, rep).outcome(c.Name, c.NumQubits)
			return nil
		})
		switch {
		case err == nil:
		case err == lentErr:
			return nil, fmt.Errorf("eval %s: %w", c.Name, err)
		default:
			return nil, fmt.Errorf("eval %s: %s: %w", c.Name, name, err)
		}
	}
	if useCache {
		opt.Cache.PutKey(key, r)
	}
	return r, nil
}

// frontEnd is a circuit's compiler-independent preparation: its native
// decomposition, initial placement and dependency graph, built once and
// only read by every compiler of a run.
type frontEnd struct {
	native    *circuit.Circuit
	placement [][]int
	graph     *dag.Graph
}

// prepare fills an empty fe the way CompileContext (or
// CompileWithMapperContext with Options.Mapper) prepares a compile.
func (fe *frontEnd) prepare(c *circuit.Circuit, opt Options) error {
	if fe.native != nil {
		return nil
	}
	native, err := circuit.Decompose(c)
	if err != nil {
		return err
	}
	var placement [][]int
	if opt.Mapper != nil {
		placement, err = opt.Mapper.Place(native, opt.Config)
	} else {
		placement, err = compiler.GreedyPlacement(native, opt.Config)
	}
	if err != nil {
		return err
	}
	*fe = frontEnd{native: native, placement: placement, graph: dag.Build(native)}
	return nil
}

// compileOne runs one compiler with panic containment: the harness runs
// arbitrary registered policies and mappers, and a buggy one must fail its
// circuit with a structured error instead of crashing the process (the
// daemon serves many jobs; a sweep has many more cells). The first call
// prepares fe; every call schedules from it and lends the result to use.
func compileOne(ctx context.Context, c *circuit.Circuit, opt Options, fe *frontEnd, comp *compiler.Compiler, use func(*compiler.Result) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("compiler panicked: %v", p)
		}
	}()
	if err := fe.prepare(c, opt); err != nil {
		return err
	}
	return comp.LendMappedContext(ctx, fe.native, opt.Config, fe.placement, fe.graph, use)
}

// RunNISQ evaluates the five NISQ benchmarks of Table II, in paper order.
func RunNISQ(ctx context.Context, opt Options) ([]*BenchResult, error) {
	specs := bench.Catalog()
	circuits := make([]*circuit.Circuit, len(specs))
	for i, s := range specs {
		circuits[i] = s.Build()
	}
	return runAll(ctx, circuits, opt)
}

// RunRandom evaluates the random suite (honoring RandomLimit).
func RunRandom(ctx context.Context, opt Options) ([]*BenchResult, error) {
	circuits := bench.RandomSuite(opt.Random)
	if opt.RandomLimit > 0 && opt.RandomLimit < len(circuits) {
		circuits = circuits[:opt.RandomLimit]
	}
	return runAll(ctx, circuits, opt)
}

// RunAll evaluates an arbitrary circuit list concurrently, preserving input
// order. On failure it still returns every successful result (in input
// order, failed circuits omitted) together with an errors.Join of all
// failures.
func RunAll(ctx context.Context, circuits []*circuit.Circuit, opt Options) ([]*BenchResult, error) {
	return runAll(ctx, circuits, opt)
}

// EventKind classifies an evaluation progress event.
type EventKind int

const (
	// EventStarted fires when a worker picks up a circuit.
	EventStarted EventKind = iota
	// EventCompleted fires when a circuit finishes; Result is set.
	EventCompleted
	// EventFailed fires when a circuit errors; Err is set.
	EventFailed
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventCompleted:
		return "completed"
	case EventFailed:
		return "failed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one typed progress notification of an evaluation run.
type Event struct {
	// Kind is the event type.
	Kind EventKind
	// Index is the circuit's position in the run; Total the run size.
	Index, Total int
	// Circuit is the circuit name.
	Circuit string
	// Result is the finished result (EventCompleted only).
	Result *BenchResult
	// Err is the failure (EventFailed only).
	Err error
}

// ItemResult is one streamed per-circuit outcome: either Result or Err is
// set.
type ItemResult struct {
	// Index is the circuit's position in the input slice.
	Index int
	// Circuit is the circuit name.
	Circuit string
	// Result is the successful outcome.
	Result *BenchResult
	// Err is the failure.
	Err error
}

// Stream evaluates circuits concurrently and sends one ItemResult per
// circuit in completion order, closing the channel when the run ends. On
// cancellation, circuits not yet started are skipped (no item is sent for
// them) and in-flight compilations abort promptly with ctx.Err(); callers
// that need a terminal error should check ctx.Err() after the channel
// closes. The channel is buffered for the whole run, so an abandoned
// consumer never wedges the workers.
func Stream(ctx context.Context, circuits []*circuit.Circuit, opt Options) <-chan ItemResult {
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(circuits) {
		par = len(circuits)
	}
	out := make(chan ItemResult, len(circuits))
	jobs := make(chan int, len(circuits))
	for i := range circuits {
		jobs <- i
	}
	close(jobs)

	var emitMu sync.Mutex
	emit := func(ev Event) {
		if opt.OnEvent == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		opt.OnEvent(ev)
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // canceled: drain without starting new work
				}
				c := circuits[i]
				emit(Event{Kind: EventStarted, Index: i, Total: len(circuits), Circuit: c.Name})
				r, err := RunCircuit(ctx, c, opt)
				if err != nil {
					emit(Event{Kind: EventFailed, Index: i, Total: len(circuits), Circuit: c.Name, Err: err})
					out <- ItemResult{Index: i, Circuit: c.Name, Err: err}
					continue
				}
				emit(Event{Kind: EventCompleted, Index: i, Total: len(circuits), Circuit: c.Name, Result: r})
				out <- ItemResult{Index: i, Circuit: c.Name, Result: r}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runAll drains Stream into an input-ordered slice. Unlike the historical
// first-error-wins behavior, every successful result survives a partial
// failure: the returned slice holds the completed circuits in input order
// and the error is an errors.Join of every per-circuit failure (plus
// ctx.Err() when the run was canceled).
func runAll(ctx context.Context, circuits []*circuit.Circuit, opt Options) ([]*BenchResult, error) {
	byIndex := make([]*BenchResult, len(circuits))
	var errs []error
	for item := range Stream(ctx, circuits, opt) {
		if item.Err != nil {
			errs = append(errs, item.Err)
		} else {
			byIndex[item.Index] = item.Result
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	results := make([]*BenchResult, 0, len(circuits))
	for _, r := range byIndex {
		if r != nil {
			results = append(results, r)
		}
	}
	return results, errors.Join(errs...)
}

// Stats summarises a set of per-circuit values as mean (std), the format of
// the paper's Random row.
type Stats struct {
	Mean, Std float64
	N         int
}

// NewStats computes mean and population standard deviation.
func NewStats(values []float64) Stats {
	s := Stats{N: len(values)}
	if s.N == 0 {
		return s
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	varSum := 0.0
	for _, v := range values {
		d := v - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(s.N))
	return s
}
