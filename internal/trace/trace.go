// Package trace provides inspection tooling for compiled schedules: JSON
// export of the operation trace (for external analysis or plotting) and an
// ASCII rendering of trap occupancy over time in the style of the paper's
// figures.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"muzzle/internal/compiler"
	"muzzle/internal/machine"
)

// JSONOp is the serialized form of one trace operation.
type JSONOp struct {
	Kind string `json:"kind"`
	Ion  int    `json:"ion"`
	Ion2 int    `json:"ion2,omitempty"`
	Trap int    `json:"trap"`
	// Dest is the destination trap for moves.
	Dest int `json:"dest,omitempty"`
	// Gate is the source gate index for gate ops, -1 otherwise.
	Gate int `json:"gate"`
	// Name is the gate mnemonic.
	Name string `json:"name,omitempty"`
}

// JSONTrace is the serialized form of a compilation result.
type JSONTrace struct {
	Circuit          string   `json:"circuit"`
	Qubits           int      `json:"qubits"`
	Traps            int      `json:"traps"`
	Capacity         int      `json:"capacity"`
	DirectionPolicy  string   `json:"direction_policy"`
	RebalancePolicy  string   `json:"rebalance_policy"`
	ReorderPolicy    string   `json:"reorder_policy,omitempty"`
	Shuttles         int      `json:"shuttles"`
	InitialPlacement [][]int  `json:"initial_placement"`
	Ops              []JSONOp `json:"ops"`
}

// WriteJSON serializes the compilation result as indented JSON.
func WriteJSON(w io.Writer, res *compiler.Result) error {
	jt := JSONTrace{
		Circuit:          res.Circ.Name,
		Qubits:           res.Circ.NumQubits,
		Traps:            res.Config.Topology.NumTraps(),
		Capacity:         res.Config.Capacity,
		DirectionPolicy:  res.DirectionPolicy,
		RebalancePolicy:  res.RebalancePolicy,
		ReorderPolicy:    res.ReorderPolicy,
		Shuttles:         res.Shuttles,
		InitialPlacement: res.InitialPlacement,
	}
	for _, op := range res.Ops {
		jo := JSONOp{Kind: op.Kind.String(), Ion: int(op.Ion), Trap: int(op.Trap), Gate: int(op.Gate), Name: op.Name.String()}
		if op.Ion2 >= 0 {
			jo.Ion2 = int(op.Ion2)
		}
		if op.Kind == machine.OpMove {
			jo.Dest = int(op.Trap2)
		}
		jt.Ops = append(jt.Ops, jo)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// ReadJSON parses a trace previously written by WriteJSON.
func ReadJSON(r io.Reader) (*JSONTrace, error) {
	var jt JSONTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &jt, nil
}

// RenderOptions tune the ASCII rendering.
type RenderOptions struct {
	// Every renders a snapshot after every Nth shuttle (default 1).
	Every int
	// MaxSnapshots caps the output (default 50).
	MaxSnapshots int
}

// Render replays the trace and writes trap-occupancy snapshots after each
// shuttle, in the style of the paper's trap-state figures:
//
//	after move ion2 T0->T1:  T0: [0 1] (EC=2) | T1: [2 3 4] (EC=1)
func Render(w io.Writer, res *compiler.Result, opt RenderOptions) error {
	if opt.Every <= 0 {
		opt.Every = 1
	}
	if opt.MaxSnapshots <= 0 {
		opt.MaxSnapshots = 50
	}
	st, err := machine.NewState(res.Config, res.InitialPlacement)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "initial: %s\n", st)
	moves, snaps := 0, 0
	for _, op := range res.Ops {
		if op.Kind != machine.OpMerge && op.Kind != machine.OpMove {
			continue
		}
		if op.Kind == machine.OpMove {
			moves++
			continue
		}
		// Merge: apply the relocation.
		if err := st.Teleport(int(op.Ion), int(op.Trap)); err != nil {
			return fmt.Errorf("trace: replay failed: %w", err)
		}
		if moves%opt.Every == 0 && snaps < opt.MaxSnapshots {
			fmt.Fprintf(w, "after %3d shuttles (ion%d -> T%d): %s\n", moves, op.Ion, op.Trap, st)
			snaps++
		}
	}
	fmt.Fprintf(w, "final (%d shuttles): %s\n", res.Shuttles, st)
	return nil
}

// Histogram returns a per-kind op count summary line, e.g.
// "gate2q=560 move=223 split=210 merge=210 swap=1742".
func Histogram(res *compiler.Result) string {
	counts := map[machine.OpKind]int{}
	for _, op := range res.Ops {
		counts[op.Kind]++
	}
	order := []machine.OpKind{machine.OpGate1Q, machine.OpGate2Q, machine.OpSwap,
		machine.OpSplit, machine.OpMove, machine.OpMerge, machine.OpMeasure}
	var parts []string
	for _, k := range order {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return strings.Join(parts, " ")
}
