package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/sim"
)

// OutcomeJSON is the serialized summary of one compiler's outcome on one
// circuit: the shuttle/gate counters and policy names of the compilation
// plus the simulator's verdict. It deliberately omits the operation trace —
// the summary is what the evaluation artifacts, the compile cache, and the
// muzzled service exchange; use internal/trace for full-trace export.
type OutcomeJSON struct {
	Compiler        string `json:"compiler"`
	Shuttles        int    `json:"shuttles"`
	Swaps           int    `json:"swaps"`
	Splits          int    `json:"splits"`
	Merges          int    `json:"merges"`
	Reorders        int    `json:"reorders"`
	Rebalances      int    `json:"rebalances"`
	Gates1Q         int    `json:"gates_1q"`
	Gates2Q         int    `json:"gates_2q"`
	CompileTimeNS   int64  `json:"compile_time_ns"`
	DirectionPolicy string `json:"direction_policy,omitempty"`
	RebalancePolicy string `json:"rebalance_policy,omitempty"`
	ReorderPolicy   string `json:"reorder_policy,omitempty"`

	DurationUS       float64 `json:"duration_us"`
	LogFidelity      float64 `json:"log_fidelity"`
	Fidelity         float64 `json:"fidelity"`
	MaxChainN        float64 `json:"max_chain_n"`
	MeanGateFidelity float64 `json:"mean_gate_fidelity"`
	MinGateFidelity  float64 `json:"min_gate_fidelity"`
	Coolings         int     `json:"coolings,omitempty"`
	Measures         int     `json:"measures,omitempty"`
}

// ResultJSON is the machine-readable per-circuit result schema shared by
// the muzzled service (job results and SSE "circuit" events), cmd/muzzle
// -json, and the compile cache's disk persistence.
type ResultJSON struct {
	Circuit   string                  `json:"circuit"`
	Qubits    int                     `json:"qubits"`
	Gates2Q   int                     `json:"gates_2q"`
	Compilers []string                `json:"compilers"`
	Outcomes  map[string]*OutcomeJSON `json:"outcomes"`
	// Verified records that every outcome passed the schedule verifier;
	// omitted when false, so unverified results encode as they always have.
	Verified bool `json:"verified,omitempty"`
}

// EncodeResult summarizes a BenchResult into its JSON schema.
func EncodeResult(r *BenchResult) *ResultJSON {
	j := &ResultJSON{
		Circuit:   r.Name,
		Qubits:    r.Qubits,
		Gates2Q:   r.Gates2Q,
		Compilers: append([]string(nil), r.Compilers...),
		Outcomes:  make(map[string]*OutcomeJSON, len(r.Outcomes)),
		Verified:  r.Verified,
	}
	for name, o := range r.Outcomes {
		j.Outcomes[name] = encodeOutcome(o.Compiler, o.Result, o.Sim)
	}
	return j
}

// encodeOutcome summarizes one compile and its simulator report.
func encodeOutcome(name string, res *compiler.Result, rep *sim.Report) *OutcomeJSON {
	return &OutcomeJSON{
		Compiler:         name,
		Shuttles:         res.Shuttles,
		Swaps:            res.Swaps,
		Splits:           res.Splits,
		Merges:           res.Merges,
		Reorders:         res.Reorders,
		Rebalances:       res.Rebalances,
		Gates1Q:          res.Gates1Q,
		Gates2Q:          res.Gates2Q,
		CompileTimeNS:    res.CompileTime.Nanoseconds(),
		DirectionPolicy:  res.DirectionPolicy,
		RebalancePolicy:  res.RebalancePolicy,
		ReorderPolicy:    res.ReorderPolicy,
		DurationUS:       rep.Duration,
		LogFidelity:      rep.LogFidelity,
		Fidelity:         rep.Fidelity,
		MaxChainN:        rep.MaxChainN,
		MeanGateFidelity: rep.MeanGateFidelity,
		MinGateFidelity:  rep.MinGateFidelity,
		Coolings:         rep.Coolings,
		Measures:         rep.Measures,
	}
}

// BenchResult rebuilds the summary BenchResult: every counter, policy name
// and simulator estimate, but no operation trace (Result.Ops, Result.Order,
// placements). RunCircuit builds its results through the same constructor,
// so a decoded result equals the live one it was encoded from.
func (j *ResultJSON) BenchResult() *BenchResult {
	r := &BenchResult{
		Name:      j.Circuit,
		Qubits:    j.Qubits,
		Gates2Q:   j.Gates2Q,
		Compilers: append([]string(nil), j.Compilers...),
		Outcomes:  make(map[string]*Outcome, len(j.Outcomes)),
		Verified:  j.Verified,
	}
	for name, o := range j.Outcomes {
		r.Outcomes[name] = o.outcome(j.Circuit, j.Qubits)
	}
	return r
}

// outcome rebuilds the summary Outcome of one compile of the named circuit.
func (o *OutcomeJSON) outcome(circuitName string, qubits int) *Outcome {
	return &Outcome{
		Compiler: o.Compiler,
		Result: &compiler.Result{
			Circ:            circuit.New(circuitName, qubits),
			Shuttles:        o.Shuttles,
			Swaps:           o.Swaps,
			Splits:          o.Splits,
			Merges:          o.Merges,
			Reorders:        o.Reorders,
			Rebalances:      o.Rebalances,
			Gates1Q:         o.Gates1Q,
			Gates2Q:         o.Gates2Q,
			CompileTime:     time.Duration(o.CompileTimeNS) * time.Nanosecond,
			DirectionPolicy: o.DirectionPolicy,
			RebalancePolicy: o.RebalancePolicy,
			ReorderPolicy:   o.ReorderPolicy,
		},
		Sim: &sim.Report{
			Duration:         o.DurationUS,
			LogFidelity:      o.LogFidelity,
			Fidelity:         o.Fidelity,
			Shuttles:         o.Shuttles,
			Splits:           o.Splits,
			Merges:           o.Merges,
			Swaps:            o.Swaps,
			Coolings:         o.Coolings,
			Gates1Q:          o.Gates1Q,
			Gates2Q:          o.Gates2Q,
			Measures:         o.Measures,
			MaxChainN:        o.MaxChainN,
			MeanGateFidelity: o.MeanGateFidelity,
			MinGateFidelity:  o.MinGateFidelity,
		},
	}
}

// WriteResultJSON serializes a BenchResult summary as indented JSON.
func WriteResultJSON(w io.Writer, r *BenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(EncodeResult(r))
}

// ReadResultJSON parses a summary previously written by WriteResultJSON.
// It rejects a summary that lists no compiler or whose outcomes are not
// exactly one non-nil outcome per listed compiler, so BenchResult can
// rebuild every summary it returns.
func ReadResultJSON(r io.Reader) (*ResultJSON, error) {
	var j ResultJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("eval: decode result: %w", err)
	}
	if len(j.Compilers) == 0 {
		return nil, fmt.Errorf("eval: decode result: no compilers listed")
	}
	seen := make(map[string]bool, len(j.Compilers))
	for _, name := range j.Compilers {
		if seen[name] {
			return nil, fmt.Errorf("eval: decode result: compiler %q listed twice", name)
		}
		seen[name] = true
		if j.Outcomes[name] == nil {
			return nil, fmt.Errorf("eval: decode result: no outcome for compiler %q", name)
		}
	}
	if len(j.Outcomes) != len(j.Compilers) {
		return nil, fmt.Errorf("eval: decode result: %d outcomes for %d compilers", len(j.Outcomes), len(j.Compilers))
	}
	return &j, nil
}
