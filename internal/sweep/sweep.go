// Package sweep is the scenario-sweep engine: it expands a declarative
// parameter grid — topology family/size, trap capacity, communication
// capacity, compiler set, circuit family — into a deterministic list of
// cells (shards), executes the cells in parallel through muzzle.Pipeline,
// and aggregates the per-cell outcomes into stable JSON/CSV artifacts.
//
// The grid follows the evaluation methodology of Murali et al. (ISCA
// 2020) — the source of the L6/ring/grid topology families the paper's
// hardware model draws on — which sweeps topology x capacity x policy to
// compare compilers. Sharing a content-addressed compile cache
// (muzzle.Cache) across cells and across runs makes overlapping cells
// free: a cell that appeared in any earlier run with the same inputs is
// served without invoking a compiler.
//
// Everything a grid can express is validated up front by Expand: bad
// topology parameters (a 2-trap ring, a 0x3 grid, a disconnected custom
// edge list), unknown compilers, impossible capacity combinations, and
// grids past the size limits (MaxTraps, MaxTopologies, MaxCells, and the
// QASM front door's circuit limits) are reported as errors before any cell
// runs, so user-supplied grids (CLI files, daemon requests) can neither
// crash the process nor exhaust its memory.
//
// Artifacts are deterministic: the same grid produces byte-identical
// report JSON on every run. Wall-clock compile time is deliberately
// excluded from cell outcomes for exactly this reason; every retained
// metric (shuttle counts, simulated duration, fidelity) is a pure
// function of the grid.
package sweep

import (
	"fmt"

	"muzzle"
	"muzzle/internal/qasm"
	"muzzle/internal/topo"
)

// Grid size limits. A grid arrives from untrusted clients (POST
// /v1/sweeps and /v1/cells bodies of up to 4 MiB), so Expand checks these
// before it builds anything. Circuits are held to the limits QASM jobs
// have: qasm.MaxQubits qubits and qasm.MaxGates gates.
const (
	// MaxTraps caps the traps of one topology. Building a topology
	// precomputes all-pairs paths, whose cost grows with the cube of the
	// trap count: about 1 MB at 64 traps, 50 MB at 256 and 183 MB at 400.
	// 64 traps is ten times the paper's L6 machine.
	MaxTraps = 64
	// MaxTopologies caps the topologies of one grid, so one expansion
	// runs that precompute at most 64 times.
	MaxTopologies = 64
	// MaxCells caps the cells of one grid. Every cell holds an ID and a
	// circuit builder, and a random spec's count multiplies them: a
	// 115-byte grid of count 1,000,000 would otherwise allocate about
	// 1 GB. 16,384 cells is over 40 times the benchmark's 384-cell sweep.
	MaxCells = 16384
)

// Topology family names accepted by TopologySpec.
const (
	FamilyLine   = "line"
	FamilyRing   = "ring"
	FamilyGrid   = "grid"
	FamilyCustom = "custom"
)

// TopologySpec selects one trap-interconnection graph of the grid.
type TopologySpec struct {
	// Family is one of "line", "ring", "grid", "custom".
	Family string `json:"family"`
	// Traps sizes a line or ring, and declares the trap count of a custom
	// edge list.
	Traps int `json:"traps,omitempty"`
	// Rows and Cols size a grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Edges is the undirected edge list of a custom topology. It must be
	// connected, with every endpoint in [0, Traps), no self-loops, and no
	// duplicate edges.
	Edges [][2]int `json:"edges,omitempty"`
	// Name labels a custom topology (default "custom<Traps>"). Labels
	// appear in cell IDs and must be unique within a grid.
	Name string `json:"name,omitempty"`
}

// checkTraps rejects a topology past MaxTraps before it is built; Build
// reports every other bad parameter. A grid's product is only taken once
// both dimensions are within the limit, so it cannot overflow.
func (s TopologySpec) checkTraps() error {
	switch {
	case s.Family == FamilyGrid && s.Rows > 0 && s.Cols > 0 &&
		(s.Rows > MaxTraps || s.Cols > MaxTraps || s.Rows*s.Cols > MaxTraps):
		return fmt.Errorf("grid %dx%d is past the %d-trap limit", s.Rows, s.Cols, MaxTraps)
	case s.Family != FamilyGrid && s.Traps > MaxTraps:
		return fmt.Errorf("%s of %d traps is past the %d-trap limit", s.Family, s.Traps, MaxTraps)
	}
	return nil
}

// Build constructs the topology, validating every parameter.
func (s TopologySpec) Build() (*topo.Topology, error) {
	switch s.Family {
	case FamilyLine:
		return topo.NewLinear(s.Traps)
	case FamilyRing:
		return topo.NewRing(s.Traps)
	case FamilyGrid:
		return topo.NewGrid(s.Rows, s.Cols)
	case FamilyCustom:
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("custom%d", s.Traps)
		}
		return topo.New(name, s.Traps, s.Edges)
	default:
		return nil, fmt.Errorf("sweep: unknown topology family %q (want %s|%s|%s|%s)",
			s.Family, FamilyLine, FamilyRing, FamilyGrid, FamilyCustom)
	}
}

// Circuit family names accepted by CircuitSpec.
const (
	CircuitPaper  = "paper"
	CircuitQFT    = "qft"
	CircuitRandom = "random"
)

// CircuitSpec selects a circuit family of the grid. "paper" expands to the
// five NISQ benchmarks of the paper's Table II; "qft" is the Qubits-qubit
// quantum Fourier transform; "random" draws Count seeded random circuits
// with exactly Gates2Q two-qubit gates each (seeds Seed, Seed+1, ...).
type CircuitSpec struct {
	Kind    string `json:"kind"`
	Qubits  int    `json:"qubits,omitempty"`
	Gates2Q int    `json:"gates_2q,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// circuitInstance is one expanded circuit of a spec: a stable label plus a
// deferred builder (the paper circuits are large; cells build lazily).
type circuitInstance struct {
	label string
	build func() *muzzle.Circuit
}

// count validates the spec, circuit sizes included, and returns how many
// circuit instances it expands to, without building any.
func (s CircuitSpec) count() (int, error) {
	switch s.Kind {
	case CircuitPaper:
		return len(muzzle.Benchmarks()), nil
	case CircuitQFT:
		if s.Qubits < 1 {
			return 0, fmt.Errorf("qft needs qubits >= 1, got %d", s.Qubits)
		}
		if s.Qubits > qasm.MaxQubits {
			return 0, fmt.Errorf("qft of %d qubits is past the %d-qubit limit", s.Qubits, qasm.MaxQubits)
		}
		// QFT(n) builds n one-qubit and n(n-1)/2 two-qubit gates.
		if gates := s.Qubits * (s.Qubits + 1) / 2; gates > qasm.MaxGates {
			return 0, fmt.Errorf("qft of %d qubits builds %d gates, past the %d-gate limit", s.Qubits, gates, qasm.MaxGates)
		}
		return 1, nil
	case CircuitRandom:
		if s.Qubits < 2 {
			return 0, fmt.Errorf("random circuit needs qubits >= 2, got %d", s.Qubits)
		}
		if s.Gates2Q < 0 {
			return 0, fmt.Errorf("random circuit needs gates_2q >= 0, got %d", s.Gates2Q)
		}
		if s.Count < 0 {
			return 0, fmt.Errorf("random circuit count %d must be >= 0", s.Count)
		}
		if s.Qubits > qasm.MaxQubits {
			return 0, fmt.Errorf("random circuit of %d qubits is past the %d-qubit limit", s.Qubits, qasm.MaxQubits)
		}
		// Each two-qubit gate may follow one rz, so a random circuit
		// builds up to 2*gates_2q gates.
		if s.Gates2Q > qasm.MaxGates/2 {
			return 0, fmt.Errorf("random circuit of %d two-qubit gates may build past the %d-gate limit", s.Gates2Q, qasm.MaxGates)
		}
		return max(s.Count, 1), nil
	default:
		return 0, fmt.Errorf("unknown circuit kind %q (want %s|%s|%s)",
			s.Kind, CircuitPaper, CircuitQFT, CircuitRandom)
	}
}

// instance returns circuit i of a spec that count accepted, i < count.
func (s CircuitSpec) instance(i int) circuitInstance {
	switch s.Kind {
	case CircuitPaper:
		sp := muzzle.Benchmarks()[i]
		return circuitInstance{label: sp.Name, build: sp.Build}
	case CircuitQFT:
		q := s.Qubits
		return circuitInstance{label: fmt.Sprintf("QFT%d", q), build: func() *muzzle.Circuit { return muzzle.QFT(q) }}
	default:
		q, g, seed := s.Qubits, s.Gates2Q, s.Seed+int64(i)
		return circuitInstance{
			label: fmt.Sprintf("Random-%dq-%dg-s%d", q, g, seed),
			build: func() *muzzle.Circuit { return muzzle.RandomCircuit(q, g, seed) },
		}
	}
}

// Grid is a declarative parameter sweep: the cross product of topologies x
// capacities x communication capacities x circuits, each cell evaluated
// under the full compiler set. The zero values of the optional axes default
// to the paper's hardware point (capacity 17, communication capacity 2)
// and compiler pair (baseline, optimized).
type Grid struct {
	// Name labels the sweep in artifacts.
	Name string `json:"name,omitempty"`
	// Topologies are the trap graphs to sweep (at least one).
	Topologies []TopologySpec `json:"topologies"`
	// Capacities are the total trap capacities to sweep (default {17}).
	Capacities []int `json:"capacities,omitempty"`
	// CommCapacities are the communication capacities to sweep
	// (default {2}). Every capacity/comm combination must satisfy
	// 0 <= comm < capacity.
	CommCapacities []int `json:"comm_capacities,omitempty"`
	// Compilers is the registry compiler set run on every cell
	// (default {"baseline", "optimized"}).
	Compilers []string `json:"compilers,omitempty"`
	// Circuits are the circuit families to sweep (at least one).
	Circuits []CircuitSpec `json:"circuits"`
	// Sim overrides the simulator model constants for every cell; nil uses
	// the paper's defaults. When given, the full parameter set must be
	// specified (absent fields are zero, and invalid combinations are
	// rejected at expansion).
	Sim *muzzle.SimParams `json:"sim,omitempty"`
}

// normalize returns the grid with defaulted axes materialized, so the
// echoed grid in artifacts is self-describing and expansion is a pure
// function of the normalized form.
func (g Grid) normalize() Grid {
	if len(g.Capacities) == 0 {
		g.Capacities = []int{17}
	}
	if len(g.CommCapacities) == 0 {
		g.CommCapacities = []int{2}
	}
	if len(g.Compilers) == 0 {
		g.Compilers = []string{muzzle.CompilerBaseline, muzzle.CompilerOptimized}
	}
	return g
}

// Cell is one shard of an expanded grid: a fully resolved (topology,
// capacity, comm, circuit) point. Cells are ordered and indexed
// deterministically — nested loops over the grid's axes in declaration
// order — so the same grid always expands to the same shard list.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// ID is the stable cell identifier, unique within the grid:
	// "<topology>/cap<capacity>-comm<comm>/<circuit>".
	ID string
	// Topology is the topology label (e.g. "L6", "R8", "G2x3").
	Topology string
	// Traps is the trap count of the topology.
	Traps int
	// Capacity and CommCapacity are the machine's capacity parameters.
	Capacity     int
	CommCapacity int
	// Circuit is the circuit label (e.g. "QFT16").
	Circuit string
	// Machine is the validated hardware model of the cell.
	Machine muzzle.MachineConfig

	build func() *muzzle.Circuit
}

// Build constructs the cell's circuit.
func (c Cell) Build() *muzzle.Circuit { return c.build() }

// Expanded is a validated grid ready to run: the normalized grid plus its
// deterministic cell list. It exists so expansion — topology construction
// includes the all-pairs path precompute — happens once per submission,
// not once per validation site and again per run.
type Expanded struct {
	// Grid is the normalized grid (defaulted axes materialized).
	Grid Grid
	// Cells is the deterministic shard list, indexed in expansion order.
	Cells []Cell
}

// Expand validates the grid and returns it expanded: the normalized form
// plus the deterministic cell list. Every user-visible parameter is
// checked here — the size limits, topology families and sizes, capacity
// combinations, compiler names, circuit specs, and label collisions — so
// callers (the CLI, the daemon's POST /v1/sweeps) can map any error to a
// clean rejection before work starts.
func Expand(g Grid) (*Expanded, error) {
	g = g.normalize()
	if len(g.Topologies) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one topology")
	}
	if len(g.Circuits) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one circuit")
	}
	ncells, err := g.checkLimits()
	if err != nil {
		return nil, err
	}
	seenComp := make(map[string]bool, len(g.Compilers))
	for _, name := range g.Compilers {
		if name == "" {
			return nil, fmt.Errorf("sweep: empty compiler name")
		}
		if seenComp[name] {
			return nil, fmt.Errorf("sweep: compiler %q listed twice", name)
		}
		seenComp[name] = true
		if !muzzle.HasCompiler(name) {
			return nil, fmt.Errorf("sweep: compiler %q is not registered (registered: %v)",
				name, muzzle.RegisteredCompilers())
		}
	}
	if g.Sim != nil {
		for _, err := range []error{
			g.Sim.Time.Validate(),
			g.Sim.Heating.Validate(),
			g.Sim.Fidelity.Validate(),
			g.Sim.Cooling.Validate(),
		} {
			if err != nil {
				return nil, fmt.Errorf("sweep: bad sim params: %w", err)
			}
		}
	}

	type builtTopo struct {
		t     *topo.Topology
		label string
	}
	topos := make([]builtTopo, len(g.Topologies))
	seenTopo := make(map[string]bool, len(g.Topologies))
	for i, spec := range g.Topologies {
		t, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("sweep: topologies[%d]: %w", i, err)
		}
		if seenTopo[t.Name()] {
			return nil, fmt.Errorf("sweep: topology label %q appears twice; give custom topologies distinct names", t.Name())
		}
		seenTopo[t.Name()] = true
		topos[i] = builtTopo{t: t, label: t.Name()}
	}

	var instances []circuitInstance
	seenCirc := make(map[string]bool)
	for _, spec := range g.Circuits {
		n, _ := spec.count() // checkLimits accepted every spec
		for i := range n {
			in := spec.instance(i)
			if seenCirc[in.label] {
				return nil, fmt.Errorf("sweep: circuit %q appears twice in the grid", in.label)
			}
			seenCirc[in.label] = true
			instances = append(instances, in)
		}
	}

	cells := make([]Cell, 0, ncells)
	for _, bt := range topos {
		for _, capacity := range g.Capacities {
			for _, comm := range g.CommCapacities {
				cfg := muzzle.MachineConfig{Topology: bt.t, Capacity: capacity, CommCapacity: comm}
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("sweep: %s capacity=%d comm=%d: %w", bt.label, capacity, comm, err)
				}
				for _, in := range instances {
					cells = append(cells, Cell{
						Index:        len(cells),
						ID:           fmt.Sprintf("%s/cap%d-comm%d/%s", bt.label, capacity, comm, in.label),
						Topology:     bt.label,
						Traps:        bt.t.NumTraps(),
						Capacity:     capacity,
						CommCapacity: comm,
						Circuit:      in.label,
						Machine:      cfg,
						build:        in.build,
					})
				}
			}
		}
	}
	return &Expanded{Grid: g, Cells: cells}, nil
}

// checkLimits validates the grid's sizes and circuit specs without building
// anything, and returns its cell count: the topologies against
// MaxTopologies and MaxTraps, every circuit spec, and the cell count
// against MaxCells. The count is summed and multiplied out axis by axis,
// each step checked before it is taken, so it cannot overflow.
func (g Grid) checkLimits() (int, error) {
	if len(g.Topologies) > MaxTopologies {
		return 0, fmt.Errorf("sweep: grid has %d topologies, past the limit of %d", len(g.Topologies), MaxTopologies)
	}
	for i, spec := range g.Topologies {
		if err := spec.checkTraps(); err != nil {
			return 0, fmt.Errorf("sweep: topologies[%d]: %w", i, err)
		}
	}
	circuits := 0
	for i, spec := range g.Circuits {
		n, err := spec.count()
		if err != nil {
			return 0, fmt.Errorf("sweep: circuits[%d]: %w", i, err)
		}
		if n > MaxCells-circuits {
			return 0, fmt.Errorf("sweep: grid has more than %d cells", MaxCells)
		}
		circuits += n
	}
	cells := circuits
	for _, n := range []int{len(g.Topologies), len(g.Capacities), len(g.CommCapacities)} {
		if n > MaxCells/cells {
			return 0, fmt.Errorf("sweep: grid has more than %d cells", MaxCells)
		}
		cells *= n
	}
	return cells, nil
}

// sortedOutcomes orders a cell's per-compiler outcomes by the grid's
// compiler run order; helper for artifact assembly. Outcomes only ever
// come from a pipeline configured with exactly g.Compilers, so the loop
// covers every entry.
func (g Grid) sortedOutcomes(outcomes map[string]*muzzle.EvalOutcomeJSON) []OutcomeSummary {
	out := make([]OutcomeSummary, 0, len(outcomes))
	for _, name := range g.Compilers {
		o := outcomes[name]
		if o == nil {
			continue
		}
		out = append(out, OutcomeSummary{
			Compiler:    name,
			Shuttles:    o.Shuttles,
			Swaps:       o.Swaps,
			Splits:      o.Splits,
			Merges:      o.Merges,
			Reorders:    o.Reorders,
			Rebalances:  o.Rebalances,
			Gates1Q:     o.Gates1Q,
			Gates2Q:     o.Gates2Q,
			DurationUS:  o.DurationUS,
			LogFidelity: o.LogFidelity,
			Fidelity:    o.Fidelity,
		})
	}
	return out
}
