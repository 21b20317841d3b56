package sweep

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"muzzle"
	"muzzle/internal/qasm"
)

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// limitGrid is a one-cell grid that the limit cases push along one axis.
func limitGrid(topos []TopologySpec, circuits ...CircuitSpec) Grid {
	if len(circuits) == 0 {
		circuits = []CircuitSpec{{Kind: CircuitQFT, Qubits: 8}}
	}
	return Grid{Topologies: topos, Circuits: circuits}
}

// line4 is the one small topology of the circuit and cell cases.
var line4 = []TopologySpec{{Family: FamilyLine, Traps: 4}}

// lines returns n line topologies of 1..n traps, whose labels differ.
func lines(n int) []TopologySpec {
	out := make([]TopologySpec, n)
	for i := range out {
		out[i] = TopologySpec{Family: FamilyLine, Traps: i + 1}
	}
	return out
}

// chain returns the edge list of a custom topology that links n traps in
// a line.
func chain(n int) [][2]int {
	edges := make([][2]int, n-1)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	return edges
}

// overLimitGrids are grids just over one limit each, with the error Expand
// must give.
func overLimitGrids() []struct {
	name string
	g    Grid
	want string
} {
	random := func(qubits, gates2q, count int) CircuitSpec {
		return CircuitSpec{Kind: CircuitRandom, Qubits: qubits, Gates2Q: gates2q, Count: count}
	}
	// Two axes whose product is just over MaxCells.
	axes := limitGrid(line4)
	axes.Capacities = slices.Repeat([]int{17}, 129)
	axes.CommCapacities = slices.Repeat([]int{2}, 128)
	return []struct {
		name string
		g    Grid
		want string
	}{
		{"line traps", limitGrid([]TopologySpec{{Family: FamilyLine, Traps: MaxTraps + 1}}),
			"sweep: topologies[0]: line of 65 traps is past the 64-trap limit"},
		{"ring traps", limitGrid([]TopologySpec{{Family: FamilyRing, Traps: MaxTraps + 1}}),
			"sweep: topologies[0]: ring of 65 traps is past the 64-trap limit"},
		{"grid traps", limitGrid([]TopologySpec{{Family: FamilyGrid, Rows: 5, Cols: 13}}),
			"sweep: topologies[0]: grid 5x13 is past the 64-trap limit"},
		{"grid rows", limitGrid([]TopologySpec{{Family: FamilyGrid, Rows: MaxTraps + 1, Cols: 1}}),
			"sweep: topologies[0]: grid 65x1 is past the 64-trap limit"},
		{"custom traps", limitGrid([]TopologySpec{{Family: FamilyCustom, Traps: MaxTraps + 1, Edges: chain(MaxTraps + 1)}}),
			"sweep: topologies[0]: custom of 65 traps is past the 64-trap limit"},
		{"topologies", limitGrid(lines(MaxTopologies + 1)),
			"sweep: grid has 65 topologies, past the limit of 64"},
		{"random count", limitGrid(line4, random(8, 8, MaxCells+1)),
			"sweep: grid has more than 16384 cells"},
		{"summed counts", limitGrid(line4, random(8, 8, MaxCells), CircuitSpec{Kind: CircuitQFT, Qubits: 8}),
			"sweep: grid has more than 16384 cells"},
		{"overflowing counts", limitGrid(line4, random(8, 8, math.MaxInt), random(9, 8, math.MaxInt)),
			"sweep: grid has more than 16384 cells"},
		{"axes", axes, "sweep: grid has more than 16384 cells"},
		{"qft qubits", limitGrid(line4, CircuitSpec{Kind: CircuitQFT, Qubits: qasm.MaxQubits + 1}),
			"sweep: circuits[0]: qft of 65537 qubits is past the 65536-qubit limit"},
		{"qft gates", limitGrid(line4, CircuitSpec{Kind: CircuitQFT, Qubits: 1448}),
			"sweep: circuits[0]: qft of 1448 qubits builds 1049076 gates, past the 1048576-gate limit"},
		{"random qubits", limitGrid(line4, random(qasm.MaxQubits+1, 8, 0)),
			"sweep: circuits[0]: random circuit of 65537 qubits is past the 65536-qubit limit"},
		{"random gates", limitGrid(line4, random(8, qasm.MaxGates/2+1, 0)),
			"sweep: circuits[0]: random circuit of 524289 two-qubit gates may build past the 1048576-gate limit"},
	}
}

// atLimitGrids are grids exactly at one or more limits each.
func atLimitGrids() map[string]Grid {
	axes := limitGrid(line4)
	for i := range 128 {
		axes.Capacities = append(axes.Capacities, 128+i)
		axes.CommCapacities = append(axes.CommCapacities, i)
	}
	return map[string]Grid{
		"traps": limitGrid([]TopologySpec{
			{Family: FamilyLine, Traps: MaxTraps},
			{Family: FamilyRing, Traps: MaxTraps},
			{Family: FamilyGrid, Rows: 8, Cols: 8},
			{Family: FamilyGrid, Rows: MaxTraps, Cols: 1},
			{Family: FamilyCustom, Traps: MaxTraps, Edges: chain(MaxTraps)},
		}),
		"topologies": limitGrid(lines(MaxTopologies)),
		"cells":      limitGrid(line4, CircuitSpec{Kind: CircuitRandom, Qubits: 8, Gates2Q: 8, Count: MaxCells}),
		"axes":       axes,
		"circuits": limitGrid(line4,
			CircuitSpec{Kind: CircuitQFT, Qubits: 1447},
			CircuitSpec{Kind: CircuitRandom, Qubits: qasm.MaxQubits, Gates2Q: qasm.MaxGates / 2}),
	}
}

// Grids just over a limit are rejected before anything is built, so the
// rejection costs little however much the grid asks for.
func TestExpandLimits(t *testing.T) {
	for _, tc := range overLimitGrids() {
		var err error
		n := allocatedBytes(func() { _, err = Expand(tc.g) })
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
		if n >= 1<<20 {
			t.Errorf("%s: rejection allocated %d bytes, want < 1 MB", tc.name, n)
		}
	}
}

// A grid exactly at every limit expands.
func TestExpandAtLimits(t *testing.T) {
	for name, g := range atLimitGrids() {
		e, err := Expand(g)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if name == "cells" || name == "axes" {
			if len(e.Cells) != MaxCells {
				t.Errorf("%s: %d cells, want %d", name, len(e.Cells), MaxCells)
			}
		}
	}
	// The qft limit counts n(n+1)/2 gates, what the builder makes.
	for n := 1; n <= 32; n++ {
		if got := len(muzzle.QFT(n).Gates); got != n*(n+1)/2 {
			t.Fatalf("QFT(%d) builds %d gates, want %d", n, got, n*(n+1)/2)
		}
	}
}
