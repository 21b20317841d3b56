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
// Predecessors, successors and layer buckets are stored in compressed
// sparse row form: one flat index array per relation plus int32 offsets,
// where node i's entries are idx[off[i]:off[i+1]].
type Graph struct {
	circ     *circuit.Circuit
	layer    []int32
	preds    []int
	predOff  []int32
	succs    []int
	succOff  []int32
	layers   []int
	layerOff []int32
}

// Build constructs the dependency graph for c.
//
// The builder is allocation-lean by design: dependency-graph construction
// runs once per compile and used to dominate the compile path's allocation
// profile (a dedupe map per gate plus per-edge appends). Edges are instead
// deduped with a small scan over each gate's operand list (gates have 1-3
// operands outside barriers) and stored in flat CSR arrays sized from a
// counting pass, so Build performs O(1) allocations regardless of circuit
// size while producing byte-identical preds/succs/layers.
//
//muzzle:hotpath
func Build(c *circuit.Circuit) *Graph {
	n := len(c.Gates)
	g := &Graph{
		circ:    c,
		layer:   make([]int32, n),
		predOff: make([]int32, n+1),
		succOff: make([]int32, n+1),
	}
	last := make([]int, c.NumQubits) // last gate index touching each qubit
	for i := range last {
		last[i] = -1
	}

	// Pass 1: per-gate distinct predecessors (dedupe via operand scan),
	// layers, and successor counts (in succOff[p]).
	totalEdges := 0
	for _, gate := range c.Gates {
		totalEdges += len(gate.Qubits)
	}
	preds := make([]int, 0, totalEdges)
	maxLayer := int32(-1)
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
			g.succOff[p]++
			if g.layer[p]+1 > l {
				l = g.layer[p] + 1
			}
		}
		g.predOff[i+1] = int32(len(preds))
		g.layer[i] = l
		if l > maxLayer {
			maxLayer = l
		}
		for _, q := range gate.Qubits {
			last[q] = i
		}
	}
	g.preds = preds

	// Pass 2: successors by counting sort. The running sum turns each count
	// into its bucket's end; filling back to front from the last gate then
	// leaves ascending gate order in every bucket and each offset at its
	// bucket's start.
	for p := 1; p <= n; p++ {
		g.succOff[p] += g.succOff[p-1]
	}
	g.succs = make([]int, len(preds))
	for i := n - 1; i >= 0; i-- {
		for _, p := range g.Preds(i) {
			g.succOff[p]--
			g.succs[g.succOff[p]] = i
		}
	}

	// Layer buckets, in ascending gate order, by the same counting sort.
	g.layerOff = make([]int32, maxLayer+2)
	for _, l := range g.layer {
		g.layerOff[l]++
	}
	for l := 1; l < len(g.layerOff); l++ {
		g.layerOff[l] += g.layerOff[l-1]
	}
	g.layers = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		l := g.layer[i]
		g.layerOff[l]--
		g.layers[g.layerOff[l]] = i
	}
	return g
}

// Circuit returns the circuit the graph was built from.
func (g *Graph) Circuit() *circuit.Circuit { return g.circ }

// NumGates returns the number of gates (nodes).
func (g *Graph) NumGates() int { return len(g.layer) }

// Layer returns the layer index of gate i.
func (g *Graph) Layer(i int) int { return int(g.layer[i]) }

// NumLayers returns the number of layers.
func (g *Graph) NumLayers() int { return len(g.layerOff) - 1 }

// LayerGates returns the gate indices in layer l, in program order. The
// returned slice must not be modified.
func (g *Graph) LayerGates(l int) []int { return row(g.layers, g.layerOff, l) }

// Preds returns the direct predecessors of gate i. The returned slice must
// not be modified.
func (g *Graph) Preds(i int) []int { return row(g.preds, g.predOff, i) }

// Succs returns the direct successors of gate i. The returned slice must not
// be modified.
func (g *Graph) Succs(i int) []int { return row(g.succs, g.succOff, i) }

// row returns CSR row i, capped so an append cannot spill into row i+1.
func row(idx []int, off []int32, i int) []int {
	lo, hi := off[i], off[i+1]
	return idx[lo:hi:hi]
}

// TopoOrder returns a valid execution order using Kahn's algorithm with a
// lowest-index-first tie break; this realises the paper's
// earliest-ready-gate-first heuristic and, by construction, equals program
// order (program order is itself topological for this graph class).
func (g *Graph) TopoOrder() []int {
	n := g.NumGates()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Preds(i))
	}
	// Min-index ready queue; a simple ordered scan is fine because indices
	// only ever become ready in increasing program positions.
	order := make([]int, 0, n)
	ready := make([]bool, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready[i] = true
		}
	}
	for len(order) < n {
		picked := -1
		for i := 0; i < n; i++ {
			if ready[i] {
				picked = i
				break
			}
		}
		if picked < 0 {
			panic("dag: cycle in dependency graph (impossible for straight-line programs)")
		}
		ready[picked] = false
		order = append(order, picked)
		for _, s := range g.Succs(picked) {
			indeg[s]--
			if indeg[s] == 0 {
				ready[s] = true
			}
		}
	}
	return order
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

// CriticalPathLength returns the number of layers, which equals the length
// of the longest dependency chain.
func (g *Graph) CriticalPathLength() int { return g.NumLayers() }
