package compiler

import (
	"fmt"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
)

// GreedyPlacement computes the initial qubit-to-trap mapping using the
// greedy policy of Murali et al. (ASPLOS 2019), which the paper adopts
// unchanged for both compilers (Section IV-E3: "we used popular greedy
// initial mapping policy [14]").
//
// Qubits are considered in order of first appearance in a 2Q gate (then any
// remaining qubits in index order). Each qubit is placed into the trap —
// among those below the initial-load limit (capacity minus communication
// capacity) — that maximizes the number of 2Q gates shared with qubits
// already placed there; ties prefer the emptier trap, then the lower index.
// Qubit i becomes ion i; the returned placement[t] lists the ions of trap t
// in insertion order.
func GreedyPlacement(c *circuit.Circuit, cfg machine.Config) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nTraps := cfg.Topology.NumTraps()
	maxLoad := cfg.MaxInitialLoad()
	if c.NumQubits > nTraps*maxLoad {
		return nil, fmt.Errorf("compiler: %d qubits exceed machine initial capacity %d (%d traps x %d)",
			c.NumQubits, nTraps*maxLoad, nTraps, maxLoad)
	}

	// Interaction weights between qubit pairs, as per-qubit neighbor lists
	// (slice scans beat per-qubit maps: degrees are small and the lists are
	// deterministic, allocation-light, and cache-friendly). A qubit's 2Q
	// gate count bounds its distinct neighbors, so every list is carved
	// from one array at that capacity and never grows.
	type neighbor struct{ q, w int }
	degree := make([]int, c.NumQubits)
	firstSeen := make([]int, c.NumQubits)
	for i := range firstSeen {
		firstSeen[i] = int(^uint(0) >> 1) // max int
	}
	total := 0
	for gi, g := range c.Gates {
		if !g.Is2Q() {
			continue
		}
		for _, q := range g.Qubits {
			degree[q]++
			firstSeen[q] = min(firstSeen[q], gi)
		}
		total += 2
	}
	adj := make([][]neighbor, c.NumQubits)
	nbs := make([]neighbor, total)
	for q, d := range degree {
		adj[q], nbs = nbs[:0:d], nbs[d:]
	}
	bump := func(a, b int) {
		for i := range adj[a] {
			if adj[a][i].q == b {
				adj[a][i].w++
				return
			}
		}
		adj[a] = append(adj[a], neighbor{q: b, w: 1})
	}
	for _, g := range c.Gates {
		if g.Is2Q() {
			bump(g.Qubits[0], g.Qubits[1])
			bump(g.Qubits[1], g.Qubits[0])
		}
	}

	// Placement order: by first 2Q appearance, inactive qubits last.
	orderQ := make([]int, c.NumQubits)
	for i := range orderQ {
		orderQ[i] = i
	}
	// Stable selection sort by (firstSeen, index) — NumQubits is small
	// (<100 in all benchmarks), so O(n^2) is irrelevant.
	for i := 0; i < len(orderQ); i++ {
		best := i
		for j := i + 1; j < len(orderQ); j++ {
			a, b := orderQ[j], orderQ[best]
			if firstSeen[a] < firstSeen[b] || (firstSeen[a] == firstSeen[b] && a < b) {
				best = j
			}
		}
		orderQ[i], orderQ[best] = orderQ[best], orderQ[i]
	}

	// A trap's chain holds at most maxLoad ions: carve every chain from one
	// array at that capacity, so placing a qubit never grows one.
	placement := make([][]int, nTraps)
	slots := make([]int, nTraps*maxLoad)
	for t := range placement {
		placement[t], slots = slots[:0:maxLoad], slots[maxLoad:]
	}
	trapOf := make([]int, c.NumQubits)
	for i := range trapOf {
		trapOf[i] = -1
	}
	trapScore := make([]int, nTraps)
	for _, q := range orderQ {
		// Accumulate q's affinity per trap in one pass over its neighbors
		// (O(deg + traps) instead of O(deg * traps)).
		for t := range trapScore {
			trapScore[t] = 0
		}
		for _, nb := range adj[q] {
			if t := trapOf[nb.q]; t >= 0 {
				trapScore[t] += nb.w
			}
		}
		bestTrap, bestScore, bestFree := -1, -1, -1
		for t := 0; t < nTraps; t++ {
			if len(placement[t]) >= maxLoad {
				continue
			}
			score := trapScore[t]
			free := maxLoad - len(placement[t])
			if score > bestScore || (score == bestScore && free > bestFree) {
				bestTrap, bestScore, bestFree = t, score, free
			}
		}
		if bestTrap < 0 {
			return nil, fmt.Errorf("compiler: no trap has room for qubit %d", q)
		}
		placement[bestTrap] = append(placement[bestTrap], q)
		trapOf[q] = bestTrap
	}
	return placement, nil
}
