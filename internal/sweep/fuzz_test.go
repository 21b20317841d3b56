package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"muzzle/internal/qasm"
)

// FuzzExpandGrid feeds arbitrary bytes through the grid decoder a daemon
// request or a -grid file reaches: DecodeGrid followed by Expand never
// panics, every grid Expand accepts stays within the size limits, and the
// grid's Hash is stable.
func FuzzExpandGrid(f *testing.F) {
	seeds := []Grid{smallGrid()}
	for _, tc := range overLimitGrids() {
		seeds = append(seeds, tc.g)
	}
	for _, g := range atLimitGrids() {
		seeds = append(seeds, g)
	}
	for _, g := range seeds {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"topologies":[{"family":"line","traps":6}],"circuits":[{"kind":"random","qubits":8,"gates_2q":8,"count":1000000}]}`))
	f.Add([]byte(`{"topologies":[{"family":"custom","name":"star5","traps":5,"edges":[[0,1],[0,2],[0,3],[0,4]]}],"circuits":[{"kind":"paper"}],"capacities":[13,17],"compilers":["optimized"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grid
		if err := DecodeGrid(bytes.NewReader(data), &g); err != nil {
			return
		}
		e, err := Expand(g)
		if err != nil {
			return
		}
		if len(e.Grid.Topologies) > MaxTopologies {
			t.Fatalf("accepted %d topologies", len(e.Grid.Topologies))
		}
		if len(e.Cells) > MaxCells {
			t.Fatalf("accepted %d cells", len(e.Cells))
		}
		for _, c := range e.Cells {
			if c.Traps > MaxTraps {
				t.Fatalf("cell %s has %d traps", c.ID, c.Traps)
			}
		}
		for _, s := range e.Grid.Circuits {
			switch s.Kind {
			case CircuitQFT:
				if s.Qubits*(s.Qubits+1)/2 > qasm.MaxGates {
					t.Fatalf("accepted QFT of %d qubits", s.Qubits)
				}
			case CircuitRandom:
				if s.Qubits > qasm.MaxQubits || 2*s.Gates2Q > qasm.MaxGates {
					t.Fatalf("accepted random circuit of %d qubits and %d two-qubit gates", s.Qubits, s.Gates2Q)
				}
			}
		}
		h1, err1 := Hash(g)
		h2, err2 := Hash(g)
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("Hash = %q, %v then %q, %v", h1, err1, h2, err2)
		}
	})
}
