// Package muzzle is a shuttle-aware compiler toolkit for multi-trap
// (QCCD) trapped-ion quantum computers, reproducing the system described in
//
//	A. A. Saki, R. O. Topaloglu, S. Ghosh,
//	"Muzzle the Shuttle: Efficient Compilation for Multi-Trap Trapped-Ion
//	Quantum Computers", DATE 2022 (arXiv:2111.07961).
//
// The package exposes the full stack: a quantum-circuit IR with an OpenQASM
// 2.0 reader/writer, the QCCD machine model (traps, ion chains, shuttle
// primitives), two complete compilers — the QCCDSim-style baseline of
// Murali et al. (ISCA 2020) and the paper's optimized compiler with
// future-ops shuttle direction, opportunistic gate re-ordering and
// nearest-neighbor-first re-balancing — a timing/heating/fidelity
// simulator, the paper's benchmark suite, and the evaluation harness that
// regenerates its tables and figures.
//
// # Pipeline: the primary API
//
// Pipeline is the entry point: a context-aware bundle of hardware model,
// compiler set, and simulator constants, assembled with functional options.
// With no options it reproduces the paper's evaluation setup exactly.
//
//	p, err := muzzle.NewPipeline() // the paper's setup
//	res, err := p.Compile(ctx, muzzle.QFT(16))
//	// res.Shuttles, res.CompileTime, ...
//	rep, err := p.Simulate(ctx, res)
//	// rep.Fidelity, rep.Duration, ...
//	results, err := p.EvaluateNISQ(ctx) // Table II rows
//
// Every Pipeline method takes a context.Context and cancels cooperatively —
// down to the compiler scheduling loop — so callers can impose timeouts and
// abort long evaluation runs promptly. Evaluation runs compare any number
// of compilers resolved by name from the process-wide registry
// (RegisterCompiler; "baseline" and "optimized" are pre-registered), stream
// per-circuit results as they complete (Pipeline.EvaluateStream,
// WithProgress), survive partial failures (completed circuits are returned
// alongside an errors.Join of the failures), and report structured *Error
// values with stable codes at the public boundary.
//
// # Caching and the compilation service
//
// WithCache installs a content-addressed compile cache (NewCache): results
// are keyed by a stable hash of circuit content, machine, compiler set,
// and simulator constants, held in an in-memory LRU with an optional
// JSON-on-disk tier that survives restarts. cmd/muzzled exposes the same
// pipeline as an HTTP service — a job queue with a bounded worker pool,
// per-job cancellation, SSE result streaming, and Prometheus-style
// metrics — built on internal/service and sharing one cache across jobs.
//
// # Schedule verification
//
// Verify is an independent machine-model replayer: it walks a compiled
// schedule's op stream from scratch and reports structured Violations for
// any broken invariant (topology edges, trap capacity, gate co-location,
// DAG order with measurement wiring, ion conservation). WithVerify turns
// the check on for every evaluation run (violations fail with ErrVerify),
// and MUZZLE_VERIFY=1 forces it from the environment.
//
// The subpackages under internal/ hold the implementation; this package is
// the stable public surface re-exporting what downstream users need.
package muzzle

import (
	"context"
	"io"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/eval"
	"muzzle/internal/exact"
	"muzzle/internal/machine"
	"muzzle/internal/qasm"
	"muzzle/internal/sim"
	"muzzle/internal/topo"
	"muzzle/internal/trace"
)

// Circuit is an ordered list of gates over a qubit register.
type Circuit = circuit.Circuit

// Gate is one operation in a circuit.
type Gate = circuit.Gate

// MachineConfig describes the QCCD hardware: topology, trap capacity, and
// communication capacity.
type MachineConfig = machine.Config

// Topology is the trap interconnection graph.
type Topology = topo.Topology

// Compiler is a policy-parameterized QCCD compiler.
type Compiler = compiler.Compiler

// CompileResult is the outcome of a compilation: the operation trace,
// shuttle counts, gate order, and timing.
type CompileResult = compiler.Result

// SimParams bundle the timing, heating, and fidelity model constants.
type SimParams = sim.Params

// SimReport is the simulator's verdict on a compiled program: duration,
// program fidelity, and operation statistics.
type SimReport = sim.Report

// BenchSpec describes one benchmark of the paper's suite.
type BenchSpec = bench.Spec

// EvalResult holds per-compiler outcome summaries for one circuit; the
// paper's artifacts read its reference pair (Pair, Reduction, Improvement).
type EvalResult = eval.BenchResult

// OptimizerOptions select which of the paper's three heuristics are active;
// the zero value enables all of them with the paper's parameters.
type OptimizerOptions = core.Options

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// ParseQASM parses OpenQASM 2.0 source into a circuit. It rejects a
// program whose registers total more than 65,536 qubits, or whose gate
// applications expand to more than 2^20 gates, 2^22 qubit operands or 2^22
// angle parameters, or take more than 2^23 steps to expand.
func ParseQASM(name, src string) (*Circuit, error) { return qasm.Parse(name, src) }

// ParseQASMFile parses an OpenQASM 2.0 file.
func ParseQASMFile(path string) (*Circuit, error) { return qasm.ParseFile(path) }

// WriteQASM serializes a circuit as OpenQASM 2.0.
func WriteQASM(w io.Writer, c *Circuit) error { return qasm.Write(w, c) }

// WriteQASMFile serializes a circuit to a file.
func WriteQASMFile(path string, c *Circuit) error { return qasm.WriteFile(path, c) }

// WriteQASMString serializes a circuit and returns the QASM source.
func WriteQASMString(c *Circuit) (string, error) { return qasm.WriteString(c) }

// Decompose rewrites a circuit into the trapped-ion native gate set
// (R, RZ, MS).
func Decompose(c *Circuit) (*Circuit, error) { return circuit.Decompose(c) }

// PaperMachine returns the hardware model of the paper's evaluation: the
// L6 linear topology with total trap capacity 17 and communication
// capacity 2 (Section IV-A).
func PaperMachine() MachineConfig { return machine.PaperL6() }

// validatedMachine assembles a MachineConfig from a topology-constructor
// result, folding both the topology error and capacity validation into one
// structured error. It backs every user-facing machine constructor.
func validatedMachine(op string, t *Topology, err error, capacity, commCapacity int) (MachineConfig, error) {
	if err != nil {
		return MachineConfig{}, newError(ErrBadOption, op, err)
	}
	cfg := MachineConfig{Topology: t, Capacity: capacity, CommCapacity: commCapacity}
	if err := cfg.Validate(); err != nil {
		return MachineConfig{}, newError(ErrBadOption, op, err)
	}
	return cfg, nil
}

// NewLinearMachine returns an n-trap linear machine, validating every
// parameter (traps >= 1, capacity > 0, 0 <= commCapacity < capacity).
func NewLinearMachine(traps, capacity, commCapacity int) (MachineConfig, error) {
	t, err := topo.NewLinear(traps)
	return validatedMachine("NewLinearMachine", t, err, capacity, commCapacity)
}

// NewRingMachine returns an n-trap ring machine, validating every
// parameter (traps >= 3, capacity > 0, 0 <= commCapacity < capacity).
func NewRingMachine(traps, capacity, commCapacity int) (MachineConfig, error) {
	t, err := topo.NewRing(traps)
	return validatedMachine("NewRingMachine", t, err, capacity, commCapacity)
}

// NewGridMachine returns a rows x cols mesh machine, validating every
// parameter (positive dimensions, capacity > 0, 0 <= commCapacity <
// capacity).
func NewGridMachine(rows, cols, capacity, commCapacity int) (MachineConfig, error) {
	t, err := topo.NewGrid(rows, cols)
	return validatedMachine("NewGridMachine", t, err, capacity, commCapacity)
}

// NewCustomMachine returns a machine over an arbitrary trap graph given as
// an undirected edge list. The graph must be connected, free of self-loops
// and duplicate edges, and every endpoint must be in [0, traps); capacity
// parameters are validated like the other constructors.
func NewCustomMachine(name string, traps int, edges [][2]int, capacity, commCapacity int) (MachineConfig, error) {
	t, err := topo.New(name, traps, edges)
	return validatedMachine("NewCustomMachine", t, err, capacity, commCapacity)
}

// NewOptimizedCompiler returns the paper's compiler: future-ops shuttle
// direction (proximity 6), opportunistic gate re-ordering, and
// nearest-neighbor-first re-balancing with max-score ion selection.
func NewOptimizedCompiler() *Compiler { return core.New() }

// NewOptimizedCompilerWithOptions returns an optimized-compiler variant
// with individual heuristics toggled (for ablation studies).
func NewOptimizedCompilerWithOptions(o OptimizerOptions) *Compiler {
	return core.NewWithOptions(o)
}

// NewBaselineCompiler returns the QCCDSim-style baseline compiler of
// Murali et al. (ISCA 2020): excess-capacity shuttle direction and
// trap-0-first re-balancing, no re-ordering.
func NewBaselineCompiler() *Compiler { return baseline.New() }

// DefaultSimParams returns the simulator constants used by the evaluation
// (see DESIGN.md "Model constants").
func DefaultSimParams() SimParams { return sim.DefaultParams() }

// SuccessEstimate is a Monte Carlo program-success estimate with a
// binomial confidence interval.
type SuccessEstimate = sim.SuccessEstimate

// SampleSuccessContext estimates program success probability by Monte
// Carlo: each gate fails independently with probability 1 - F(gate); a
// trial succeeds when no gate fails. The analytic replay and every sampling
// worker observe ctx, so a canceled caller stops the estimate within one
// trial chunk.
func SampleSuccessContext(ctx context.Context, res *CompileResult, trials int, seed int64) (*SuccessEstimate, error) {
	return sim.SampleSuccessContext(ctx, res.Config, res.InitialPlacement, res.Ops, sim.DefaultParams(), trials, seed)
}

// Benchmarks returns the paper's five NISQ benchmarks (Table II).
func Benchmarks() []BenchSpec { return bench.Catalog() }

// QFT returns the n-qubit quantum Fourier transform benchmark.
func QFT(n int) *Circuit { return bench.QFT(n) }

// RandomCircuit returns a seeded random benchmark circuit with exactly
// gates2q two-qubit gates.
func RandomCircuit(qubits, gates2q int, seed int64) *Circuit {
	return bench.Random(qubits, gates2q, seed)
}

// FormatTableII renders the shuttle-reduction table (paper Table II).
func FormatTableII(nisq, random []*EvalResult) string { return eval.TableII(nisq, random) }

// FormatFigure8 renders the fidelity-improvement chart (paper Fig. 8).
func FormatFigure8(nisq, random []*EvalResult) string { return eval.Figure8(nisq, random) }

// FormatTableIII renders the compile-time table (paper Table III).
func FormatTableIII(nisq, random []*EvalResult) string { return eval.TableIII(nisq, random) }

// FormatSummary renders the abstract's headline statistics.
func FormatSummary(nisq, random []*EvalResult) string { return eval.Summary(nisq, random) }

// WriteTraceJSON exports a compiled schedule as JSON for external analysis.
func WriteTraceJSON(w io.Writer, res *CompileResult) error { return trace.WriteJSON(w, res) }

// RenderTrace writes ASCII trap-occupancy snapshots of a compiled schedule.
func RenderTrace(w io.Writer, res *CompileResult) error {
	return trace.Render(w, res, trace.RenderOptions{})
}

// WriteScheduleSVG renders the compiled schedule as a trap x time Gantt
// chart (gates blue, shuttle primitives warm).
func WriteScheduleSVG(w io.Writer, res *CompileResult) error {
	return trace.WriteSVG(w, res, trace.SVGOptions{})
}

// ExactMinShuttles returns the provably minimal shuttle count for a small
// circuit executed in program order from the given placement (exponential;
// rejects instances beyond a few million placement states — the
// intractability the paper cites when justifying heuristics,
// Section IV-E1).
func ExactMinShuttles(c *Circuit, cfg MachineConfig, placement [][]int) (int, error) {
	native, err := circuit.Decompose(c)
	if err != nil {
		return 0, err
	}
	return exact.MinShuttles(native, cfg, placement)
}

// Placement is an initial-mapping policy (paper Section IV-E3 notes the
// mapping as an exploration axis).
type Placement = compiler.Placement

// GreedyMapper is the paper's default initial-mapping policy.
type GreedyMapper = compiler.GreedyMapper

// RoundRobinMapper deals qubits to traps in index order.
type RoundRobinMapper = compiler.RoundRobinMapper

// RandomMapper shuffles qubits into traps reproducibly from a seed.
type RandomMapper = compiler.RandomMapper

// RefinedMapper wraps a base mapper with Kernighan-Lin-style swap
// refinement of the weighted cut.
type RefinedMapper = compiler.RefinedMapper
