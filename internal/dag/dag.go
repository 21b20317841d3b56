// Package dag builds the gate dependency graph of a quantum program
// (paper Section II-A, Fig. 2).
//
// The graph is a layered DAG: a gate depends on the most recent earlier gate
// touching each of its qubits; its layer is one past the deepest such
// predecessor. Gates within a layer commute with respect to scheduling (they
// act on disjoint qubits), so any order that respects the edges is a valid
// execution order. Barriers participate as dependency points spanning their
// qubits but are not physical operations.
package dag

import (
	"fmt"

	"muzzle/internal/circuit"
)

// Graph is the dependency graph over the gates of one circuit. Gate indices
// refer to positions in the source circuit's Gates slice.
//
// Only the relation the compiler and verifier read is stored: each gate's
// layer, and its predecessors in compressed sparse row form (one flat index
// array plus int32 offsets, where gate i's predecessors are
// preds[predOff[i]:predOff[i+1]]).
type Graph struct {
	circ     *circuit.Circuit
	layer    []int32
	maxLayer int32
	preds    []int
	predOff  []int32
}

// Build constructs the dependency graph for c.
//
// The builder is allocation-lean by design: dependency-graph construction
// runs once per compile and used to dominate the compile path's allocation
// profile (a dedupe map per gate plus per-edge appends). Edges are instead
// deduped with a small scan over each gate's operand list (gates have 1-3
// operands outside barriers) and stored in a flat CSR array sized from the
// operand count, so Build performs O(1) allocations regardless of circuit
// size.
//
//muzzle:hotpath
func Build(c *circuit.Circuit) *Graph {
	n := len(c.Gates)
	g := &Graph{
		circ:     c,
		layer:    make([]int32, n),
		maxLayer: -1,
		predOff:  make([]int32, n+1),
	}
	last := make([]int, c.NumQubits) // last gate index touching each qubit
	for i := range last {
		last[i] = -1
	}

	// Each gate's distinct predecessors (dedupe via operand scan) and layer.
	totalEdges := 0
	for _, gate := range c.Gates {
		totalEdges += len(gate.Qubits)
	}
	preds := make([]int, 0, totalEdges)
	for i, gate := range c.Gates {
		l := int32(0)
		start := len(preds)
		for _, q := range gate.Qubits {
			p := last[q]
			if p < 0 {
				continue
			}
			dup := false
			for _, prev := range preds[start:] {
				if prev == p {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			preds = append(preds, p)
			if g.layer[p]+1 > l {
				l = g.layer[p] + 1
			}
		}
		g.predOff[i+1] = int32(len(preds))
		g.layer[i] = l
		if l > g.maxLayer {
			g.maxLayer = l
		}
		for _, q := range gate.Qubits {
			last[q] = i
		}
	}
	g.preds = preds
	return g
}

// Circuit returns the circuit the graph was built from.
func (g *Graph) Circuit() *circuit.Circuit { return g.circ }

// NumGates returns the number of gates (nodes).
func (g *Graph) NumGates() int { return len(g.layer) }

// Layer returns the layer index of gate i.
func (g *Graph) Layer(i int) int { return int(g.layer[i]) }

// NumLayers returns the number of layers, which equals the length of the
// longest dependency chain.
func (g *Graph) NumLayers() int { return int(g.maxLayer) + 1 }

// Preds returns the direct predecessors of gate i. The returned slice must
// not be modified; it is capped so an append cannot spill into gate i+1's
// predecessors.
func (g *Graph) Preds(i int) []int {
	lo, hi := g.predOff[i], g.predOff[i+1]
	return g.preds[lo:hi:hi]
}

// ValidOrder reports whether order is a permutation of all gates that
// respects every dependency edge.
func (g *Graph) ValidOrder(order []int) error {
	n := g.NumGates()
	if len(order) != n {
		return fmt.Errorf("dag: order has %d entries, graph has %d gates", len(order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for p, idx := range order {
		if idx < 0 || idx >= n {
			return fmt.Errorf("dag: order entry %d out of range", idx)
		}
		if seen[idx] {
			return fmt.Errorf("dag: gate %d appears twice in order", idx)
		}
		seen[idx] = true
		pos[idx] = p
	}
	for i := 0; i < n; i++ {
		for _, p := range g.Preds(i) {
			if pos[p] > pos[i] {
				return fmt.Errorf("dag: gate %d scheduled before its predecessor %d", i, p)
			}
		}
	}
	return nil
}

// CanHoist reports whether gate idx can be executed before every gate in
// notYetExecuted that currently precedes it in the order — i.e. whether all
// of idx's predecessors have already executed. executed[i] must be true for
// gates already issued.
func (g *Graph) CanHoist(idx int, executed []bool) bool {
	for _, p := range g.Preds(idx) {
		if !executed[p] {
			return false
		}
	}
	return true
}
