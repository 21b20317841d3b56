package compiler

import (
	"context"
	"fmt"
	"math/rand"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
)

// The paper notes (Section IV-E3) that "different initial mapping policies
// can be explored" beyond the greedy policy it adopts. This file provides
// that exploration surface: a Placement policy interface, round-robin and
// seeded-random baselines, and a Kernighan-Lin-style refinement pass that
// improves any starting placement by swapping qubit pairs across traps when
// the swap reduces the weighted cut (the number of 2Q gates crossing
// traps). The ablation benchmarks compare them.

// Placement computes an initial qubit-to-trap assignment. placement[t]
// lists the ions of trap t in chain order; qubit i becomes ion i.
type Placement interface {
	// Name identifies the policy in reports.
	Name() string
	// Place computes the placement for circuit c on machine cfg.
	Place(c *circuit.Circuit, cfg machine.Config) ([][]int, error)
}

// GreedyMapper is the paper's default policy (GreedyPlacement).
type GreedyMapper struct{}

// Name implements Placement.
func (GreedyMapper) Name() string { return "greedy" }

// Place implements Placement.
func (GreedyMapper) Place(c *circuit.Circuit, cfg machine.Config) ([][]int, error) {
	return GreedyPlacement(c, cfg)
}

// RoundRobinMapper deals qubits to traps in index order — the simplest
// possible baseline, oblivious to the interaction graph.
type RoundRobinMapper struct{}

// Name implements Placement.
func (RoundRobinMapper) Name() string { return "round-robin" }

// Place implements Placement.
func (RoundRobinMapper) Place(c *circuit.Circuit, cfg machine.Config) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nTraps := cfg.Topology.NumTraps()
	maxLoad := cfg.MaxInitialLoad()
	if c.NumQubits > nTraps*maxLoad {
		return nil, fmt.Errorf("compiler: %d qubits exceed machine initial capacity %d", c.NumQubits, nTraps*maxLoad)
	}
	placement := make([][]int, nTraps)
	t := 0
	for q := 0; q < c.NumQubits; q++ {
		for len(placement[t]) >= maxLoad {
			t = (t + 1) % nTraps
		}
		placement[t] = append(placement[t], q)
		t = (t + 1) % nTraps
	}
	return placement, nil
}

// RandomMapper shuffles qubits into traps reproducibly from a seed; the
// worst-case-ish baseline for mapping studies.
type RandomMapper struct {
	Seed int64
}

// Name implements Placement.
func (m RandomMapper) Name() string { return fmt.Sprintf("random(seed=%d)", m.Seed) }

// Place implements Placement.
func (m RandomMapper) Place(c *circuit.Circuit, cfg machine.Config) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nTraps := cfg.Topology.NumTraps()
	maxLoad := cfg.MaxInitialLoad()
	if c.NumQubits > nTraps*maxLoad {
		return nil, fmt.Errorf("compiler: %d qubits exceed machine initial capacity %d", c.NumQubits, nTraps*maxLoad)
	}
	rng := rand.New(rand.NewSource(m.Seed))
	perm := rng.Perm(c.NumQubits)
	placement := make([][]int, nTraps)
	t := 0
	for _, q := range perm {
		for len(placement[t]) >= maxLoad {
			t = (t + 1) % nTraps
		}
		placement[t] = append(placement[t], q)
		t = (t + 1) % nTraps
	}
	return placement, nil
}

// RefinedMapper wraps another placement policy with a Kernighan-Lin-style
// pairwise-swap refinement: while some cross-trap qubit swap strictly
// reduces the weighted edge cut (weight = number of 2Q gates between the
// pair, scaled by trap distance), apply the best such swap. Passes are
// bounded, so refinement always terminates.
type RefinedMapper struct {
	// Base is the starting policy (nil means GreedyMapper).
	Base Placement
	// MaxPasses bounds refinement sweeps (0 means 8).
	MaxPasses int
}

// Name implements Placement.
func (m RefinedMapper) Name() string {
	base := m.base().Name()
	return "kl-refined(" + base + ")"
}

func (m RefinedMapper) base() Placement {
	if m.Base != nil {
		return m.Base
	}
	return GreedyMapper{}
}

func (m RefinedMapper) maxPasses() int {
	if m.MaxPasses > 0 {
		return m.MaxPasses
	}
	return 8
}

// Place implements Placement.
func (m RefinedMapper) Place(c *circuit.Circuit, cfg machine.Config) ([][]int, error) {
	placement, err := m.base().Place(c, cfg)
	if err != nil {
		return nil, err
	}
	top := cfg.Topology
	trapOf := make([]int, c.NumQubits)
	for t, chain := range placement {
		for _, q := range chain {
			trapOf[q] = t
		}
	}
	// Interaction weights.
	type edge struct {
		a, b, w int
	}
	var edges []edge
	for key, w := range c.InteractionCount() {
		edges = append(edges, edge{a: key / c.NumQubits, b: key % c.NumQubits, w: w})
	}
	// cost is the placement objective: sum over interacting pairs of
	// weight x topology distance between their traps.
	cost := func() int {
		s := 0
		for _, e := range edges {
			s += e.w * top.Distance(trapOf[e.a], trapOf[e.b])
		}
		return s
	}
	// qubitCost isolates one qubit's contribution for delta evaluation.
	qubitCost := func(q, at int) int {
		s := 0
		for _, e := range edges {
			switch q {
			case e.a:
				other := trapOf[e.b]
				if e.b == q {
					other = at
				}
				s += e.w * top.Distance(at, other)
			case e.b:
				s += e.w * top.Distance(trapOf[e.a], at)
			}
		}
		return s
	}
	cur := cost()
	for pass := 0; pass < m.maxPasses(); pass++ {
		improved := false
		for qa := 0; qa < c.NumQubits; qa++ {
			for qb := qa + 1; qb < c.NumQubits; qb++ {
				ta, tb := trapOf[qa], trapOf[qb]
				if ta == tb {
					continue
				}
				before := qubitCost(qa, ta) + qubitCost(qb, tb)
				trapOf[qa], trapOf[qb] = tb, ta
				after := qubitCost(qa, tb) + qubitCost(qb, ta)
				if after < before {
					cur += after - before
					improved = true
				} else {
					trapOf[qa], trapOf[qb] = ta, tb
				}
			}
		}
		if !improved {
			break
		}
	}
	_ = cur
	// Rebuild chains preserving the per-trap relative order of the base
	// placement where possible.
	out := make([][]int, top.NumTraps())
	for _, chain := range placement {
		for _, q := range chain {
			out[trapOf[q]] = append(out[trapOf[q]], q)
		}
	}
	return out, nil
}

// CutWeight returns the placement objective used by RefinedMapper: the sum
// over interacting qubit pairs of (gate count x trap distance). Exposed for
// tests and mapping studies.
func CutWeight(c *circuit.Circuit, cfg machine.Config, placement [][]int) int {
	trapOf := make([]int, c.NumQubits)
	for t, chain := range placement {
		for _, q := range chain {
			trapOf[q] = t
		}
	}
	s := 0
	for key, w := range c.InteractionCount() {
		a, b := key/c.NumQubits, key%c.NumQubits
		s += w * cfg.Topology.Distance(trapOf[a], trapOf[b])
	}
	return s
}

// CompileWithMapperContext runs the compiler using an explicit placement
// policy instead of the default greedy mapping, with cooperative
// cancellation.
func (c *Compiler) CompileWithMapperContext(ctx context.Context, circ *circuit.Circuit, cfg machine.Config, mapper Placement) (*Result, error) {
	native, err := circuit.Decompose(circ)
	if err != nil {
		return nil, err
	}
	placement, err := mapper.Place(native, cfg)
	if err != nil {
		return nil, err
	}
	return c.CompileMappedContext(ctx, native, cfg, placement)
}
