// Package sim is the QCCD simulator: it replays the operation trace produced
// by a compiler against the timing, heating, and fidelity models, yielding
// program duration and program fidelity. It plays the role of the QCCDSim
// simulator the paper uses for its Fig. 8 fidelity numbers (Section IV-A:
// "To get the program fidelity estimates, we leverage the QCCD simulator
// [7] which includes experimental operation time and gate fidelity
// models").
//
// Timing semantics: gates within a trap are serial, distinct traps run in
// parallel (paper Section II-B1). Each trap has a clock; an operation on one
// trap advances that trap's clock, a MOVE synchronizes source and
// destination clocks. Dependencies between gates are implicit in trace
// order within each trap plus the shuttle synchronization points — the
// compiler only emits traces whose per-trap order respects the circuit DAG.
package sim

import (
	"context"
	"fmt"
	"math"

	"muzzle/internal/fidelity"
	"muzzle/internal/heating"
	"muzzle/internal/machine"
)

// TimeParams are operation durations in microseconds. Defaults are
// literature-plausible stand-ins for QCCDSim's calibrated values (paper refs
// [9],[10]; see DESIGN.md "Model constants").
type TimeParams struct {
	// Gate1Q is the single-qubit gate time.
	Gate1Q float64
	// Gate2QBase is the two-qubit MS gate time for a 2-ion chain; the
	// effective time scales linearly with chain length (longer chains have
	// slower, more weakly coupled modes — the paper's motivation for
	// limiting ions per trap, Section I).
	Gate2QBase float64
	// Gate2QPerIon is the additional 2Q time per ion beyond 2 in the chain.
	Gate2QPerIon float64
	// Split, Move, Merge, Swap are the shuttle primitive durations.
	Split float64
	Move  float64
	Merge float64
	Swap  float64
	// Measure is the readout time.
	Measure float64
}

// DefaultTimeParams returns the durations used throughout the evaluation.
func DefaultTimeParams() TimeParams {
	return TimeParams{
		Gate1Q:       10,
		Gate2QBase:   100,
		Gate2QPerIon: 3,
		Split:        80,
		Move:         5,
		Merge:        80,
		Swap:         42,
		Measure:      100,
	}
}

// Validate rejects non-positive durations.
func (p TimeParams) Validate() error {
	for _, v := range []float64{p.Gate1Q, p.Gate2QBase, p.Split, p.Move, p.Merge, p.Swap, p.Measure} {
		if v <= 0 {
			return fmt.Errorf("sim: non-positive duration in %+v", p)
		}
	}
	if p.Gate2QPerIon < 0 {
		return fmt.Errorf("sim: negative per-ion 2Q scaling")
	}
	return nil
}

// Gate2Q returns the 2Q gate duration for a chain of n ions.
func (p TimeParams) Gate2Q(n int) float64 {
	extra := float64(n - 2)
	if extra < 0 {
		extra = 0
	}
	return p.Gate2QBase + p.Gate2QPerIon*extra
}

// CoolingParams configure optional sympathetic re-cooling. The paper's
// compilers do not re-cool — accumulated motional energy is exactly why
// shuttle reduction pays off — but QCCD hardware proposals include coolant
// ions, so the simulator models it for ablation studies: after a merge
// pushes a chain's n̄ above Threshold, the chain is re-cooled to n̄ = 0 at a
// cost of Time microseconds.
type CoolingParams struct {
	// Enabled turns re-cooling on.
	Enabled bool
	// Threshold is the n̄ level that triggers re-cooling (quanta).
	Threshold float64
	// Time is the re-cooling duration in microseconds.
	Time float64
}

// Validate rejects non-physical cooling constants.
func (p CoolingParams) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.Threshold < 0 || p.Time <= 0 {
		return fmt.Errorf("sim: bad cooling params %+v", p)
	}
	return nil
}

// Params bundles all model constants.
type Params struct {
	Time     TimeParams
	Heating  heating.Params
	Fidelity fidelity.Params
	Cooling  CoolingParams
}

// DefaultParams returns the evaluation constants (no re-cooling, matching
// the paper's model).
func DefaultParams() Params {
	return Params{
		Time:     DefaultTimeParams(),
		Heating:  heating.DefaultParams(),
		Fidelity: fidelity.DefaultParams(),
	}
}

// DefaultCooling returns a plausible re-cooling configuration for ablation
// studies: re-cool when a chain exceeds 10 quanta, costing 400 µs.
func DefaultCooling() CoolingParams {
	return CoolingParams{Enabled: true, Threshold: 10, Time: 400}
}

// Report is the outcome of simulating one compiled program.
type Report struct {
	// Duration is the makespan in microseconds (max over trap clocks).
	Duration float64
	// LogFidelity is ln(program fidelity); Fidelity = exp(LogFidelity).
	LogFidelity float64
	// Fidelity is the program fidelity (product of gate fidelities); it may
	// underflow to 0 for large hot programs — compare LogFidelity instead.
	Fidelity float64
	// Shuttles is the number of MOVE operations (the paper's metric).
	Shuttles int
	// Splits, Merges, Swaps count the other shuttle primitives.
	Splits, Merges, Swaps int
	// Coolings counts sympathetic re-cooling events (0 unless enabled).
	Coolings int
	// Gates1Q, Gates2Q, Measures count gate executions.
	Gates1Q, Gates2Q, Measures int
	// MaxChainN is the hottest motional mode reached by any chain.
	MaxChainN float64
	// MeanGateFidelity is the geometric mean of per-gate fidelities.
	MeanGateFidelity float64
	// MinGateFidelity is the worst single gate.
	MinGateFidelity float64
}

// cancelCheckStride bounds how many trace ops replay between context
// checks; replay cost per op is tiny, so a coarse stride keeps the check
// overhead invisible while still bounding cancellation latency.
const cancelCheckStride = 4096

// SimulateContext replays the trace of compiled machine state st (starting
// from the placement snapshot taken before compilation) under params. The
// initial placement must be the pre-execution snapshot so chain sizes
// during replay match what the compiler saw. The replay loop checks ctx
// every few thousand ops and aborts with ctx.Err().
func SimulateContext(ctx context.Context, cfg machine.Config, initial [][]int, ops []machine.Op, params Params) (*Report, error) {
	rep, _, err := replay(ctx, cfg, initial, ops, params, false)
	return rep, err
}

// replay is the simulation behind SimulateContext and SampleSuccessContext.
// With withFids it also returns every executed gate's fidelity in trace
// order, the list the Monte Carlo sampler draws against; without it the
// list is nil and costs nothing.
func replay(ctx context.Context, cfg machine.Config, initial [][]int, ops []machine.Op, params Params, withFids bool) (*Report, []float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := params.Time.Validate(); err != nil {
		return nil, nil, err
	}
	if err := params.Cooling.Validate(); err != nil {
		return nil, nil, err
	}
	st, err := machine.NewState(cfg, initial)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: bad initial placement: %w", err)
	}
	nTraps := cfg.Topology.NumTraps()
	heat, err := heating.NewModel(params.Heating, nTraps, st.NumIons())
	if err != nil {
		return nil, nil, err
	}
	acc, err := fidelity.NewAccumulator(params.Fidelity)
	if err != nil {
		return nil, nil, err
	}

	clock := make([]float64, nTraps)
	lastHeat := make([]float64, nTraps)
	var fids []float64
	if withFids {
		// Every 1Q and 2Q gate op records one fidelity; counting them
		// first sizes the list once instead of regrowing it by append.
		nGates := 0
		for _, op := range ops {
			if op.Kind == machine.OpGate1Q || op.Kind == machine.OpGate2Q {
				nGates++
			}
		}
		fids = make([]float64, 0, nGates)
	}
	rep := &Report{}

	// advance moves trap t's clock forward by dur, integrating background
	// heating over the elapsed interval first.
	advance := func(t int, dur float64) {
		if clock[t] > lastHeat[t] {
			heat.Background(t, clock[t]-lastHeat[t])
		}
		clock[t] += dur
		heat.Background(t, dur)
		lastHeat[t] = clock[t]
	}
	// syncTraps aligns two trap clocks to their max (for MOVE), charging
	// each trap background heating for its idle wait.
	syncTraps := func(a, b int) {
		m := math.Max(clock[a], clock[b])
		for _, t := range []int{a, b} {
			if m > lastHeat[t] {
				heat.Background(t, m-lastHeat[t])
				lastHeat[t] = m
			}
			clock[t] = m
		}
	}

	for i, op := range ops {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("sim: canceled at op %d/%d: %w", i, len(ops), err)
			}
		}
		switch op.Kind {
		case machine.OpGate1Q:
			t := st.IonTrap(int(op.Ion))
			advance(t, params.Time.Gate1Q)
			f := acc.Add(params.Time.Gate1Q, heat.ChainN(t), st.Occupancy(t))
			if withFids {
				fids = append(fids, f)
			}
			rep.Gates1Q++
		case machine.OpMeasure:
			t := st.IonTrap(int(op.Ion))
			advance(t, params.Time.Measure)
			rep.Measures++
		case machine.OpGate2Q:
			t := st.IonTrap(int(op.Ion))
			if st.IonTrap(int(op.Ion2)) != t {
				return nil, nil, fmt.Errorf("sim: op %d (%s): ions not co-located at replay", i, op)
			}
			dur := params.Time.Gate2Q(st.Occupancy(t))
			advance(t, dur)
			f := acc.Add(dur, heat.ChainN(t), st.Occupancy(t))
			if withFids {
				fids = append(fids, f)
			}
			rep.Gates2Q++
		case machine.OpSwap:
			t := st.IonTrap(int(op.Ion))
			advance(t, params.Time.Swap)
			heat.Swap(t)
			rep.Swaps++
			// Replay the swap on the shadow state to keep chain order.
			if err := replaySwap(st, op); err != nil {
				return nil, nil, fmt.Errorf("sim: op %d: %w", i, err)
			}
		case machine.OpSplit:
			t := st.IonTrap(int(op.Ion))
			advance(t, params.Time.Split)
			heat.Split(t, int(op.Ion), st.Occupancy(t))
			rep.Splits++
		case machine.OpMove:
			syncTraps(int(op.Trap), int(op.Trap2))
			advance(int(op.Trap), params.Time.Move)
			advance(int(op.Trap2), params.Time.Move)
			heat.Move(int(op.Ion))
			rep.Shuttles++
			// Apply the split+move+merge on the shadow state when the
			// matching merge arrives; the machine Hop is atomic, so here we
			// directly relocate on merge (below). Record nothing yet.
		case machine.OpMerge:
			t := int(op.Trap)
			advance(t, params.Time.Merge)
			if err := replayRelocate(st, int(op.Ion), t); err != nil {
				return nil, nil, fmt.Errorf("sim: op %d: %w", i, err)
			}
			heat.Merge(t, int(op.Ion), st.Occupancy(t))
			rep.Merges++
			if params.Cooling.Enabled && heat.ChainN(t) > params.Cooling.Threshold {
				advance(t, params.Cooling.Time)
				heat.Cool(t)
				rep.Coolings++
			}
		default:
			return nil, nil, fmt.Errorf("sim: op %d: unknown kind %v", i, op.Kind)
		}
	}

	rep.Duration = 0
	for _, c := range clock {
		if c > rep.Duration {
			rep.Duration = c
		}
	}
	rep.LogFidelity = acc.LogFidelity()
	rep.Fidelity = acc.Fidelity()
	rep.MaxChainN = heat.MaxChainN()
	rep.MinGateFidelity = acc.MinGateFidelity()
	if n := acc.Gates(); n > 0 {
		rep.MeanGateFidelity = math.Exp(acc.LogFidelity() / float64(n))
	} else {
		rep.MeanGateFidelity = 1
	}
	return rep, fids, nil
}

// replaySwap applies one adjacent transposition to the shadow state. The
// shadow state is only used for occupancy/chain-size queries, so we re-use
// the recorded operand pair directly.
func replaySwap(st *machine.State, op machine.Op) error {
	// The machine package has no public swap; emulate by checking the two
	// ions share a trap — chain order does not affect occupancy-based
	// timing, so a positional no-op is sound here.
	if st.IonTrap(int(op.Ion)) != st.IonTrap(int(op.Ion2)) {
		return fmt.Errorf("swap operands in different traps: %s", op)
	}
	return nil
}

// replayRelocate moves ion directly between traps on the shadow state
// (occupancy bookkeeping for the replay; the full SPLIT/MOVE/MERGE sequence
// was already accounted for in time and heat).
func replayRelocate(st *machine.State, ion, to int) error {
	from := st.IonTrap(ion)
	if from == to {
		return nil
	}
	return st.Teleport(ion, to)
}
