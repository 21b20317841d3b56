package eval

import (
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/core"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
	"muzzle/internal/topo"
)

// TestExtendedKernelsBothCompilers pushes the star (BV), ripple (Adder) and
// chain (GHZ) kernels through both compilers end to end and validates the
// fundamental contracts: dependency-valid order, exact gate counts,
// replayable traces, and non-negative optimization deltas.
func TestExtendedKernelsBothCompilers(t *testing.T) {
	cfg := machine.PaperL6()
	for _, spec := range bench.ExtendedCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c := spec.Build()
			resB, err := baseline.New().CompileContext(t.Context(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resO, err := core.New().CompileContext(t.Context(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*struct {
				shuttles, gates2q int
				order             []int
				circ              *circuit.Circuit
			}{
				"baseline":  {resB.Shuttles, resB.Gates2Q, resB.Order, resB.Circ},
				"optimized": {resO.Shuttles, resO.Gates2Q, resO.Order, resO.Circ},
			} {
				if res.gates2q != spec.Gates2Q {
					t.Errorf("%s executed %d 2Q gates, want %d", name, res.gates2q, spec.Gates2Q)
				}
				if err := dag.Build(res.circ).ValidOrder(res.order); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if resO.Shuttles > resB.Shuttles {
				t.Errorf("optimized (%d) worse than baseline (%d) on %s", resO.Shuttles, resB.Shuttles, spec.Name)
			}
			// Traces replay cleanly through the simulator.
			if _, err := sim.SimulateContext(t.Context(), cfg, resB.InitialPlacement, resB.Ops, sim.DefaultParams()); err != nil {
				t.Errorf("baseline replay: %v", err)
			}
			if _, err := sim.SimulateContext(t.Context(), cfg, resO.InitialPlacement, resO.Ops, sim.DefaultParams()); err != nil {
				t.Errorf("optimized replay: %v", err)
			}
		})
	}
}

// TestGHZNeedsFewShuttles: a 64-qubit GHZ chain maps onto L6 with only the
// five trap-boundary crossings (one per adjacent trap pair) — a sanity
// check that the greedy mapping plus either compiler recognizes pure
// nearest-neighbor structure.
func TestGHZNeedsFewShuttles(t *testing.T) {
	cfg := machine.PaperL6()
	c := bench.GHZ(64)
	res, err := core.New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 64 qubits need ceil(64/15) = 5 traps, so the chain crosses at least 4
	// trap boundaries; the compiler should stay within a small constant
	// factor of that minimum.
	if res.Shuttles < 4 {
		t.Errorf("GHZ shuttles = %d: impossible, chain spans 5 traps", res.Shuttles)
	}
	if res.Shuttles > 20 {
		t.Errorf("GHZ shuttles = %d, want near the 4-crossing minimum", res.Shuttles)
	}
}

// TestStarPatternStress: Bernstein-Vazirani's all-to-one pattern is an
// adversarial case for *both* compilers — the greedy mapper scatters the
// star's leaves across traps (they share no pairwise gates), so the ancilla
// must tour the machine and lookahead buys little. The paper makes no claim
// about star workloads; the contract here is termination, correctness, and
// staying within a small margin of the baseline.
func TestStarPatternStress(t *testing.T) {
	cfg := machine.PaperL6()
	c := bench.BernsteinVazirani(64, ^uint64(0))
	resB, err := baseline.New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resO, err := core.New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(resO.Shuttles) > 1.15*float64(resB.Shuttles) {
		t.Errorf("optimized (%d) more than 15%% worse than baseline (%d) on the adversarial BV star", resO.Shuttles, resB.Shuttles)
	}
}

// TestSmallMachineEndToEnd compiles the whole extended catalog on a
// non-linear machine, ensuring nothing assumes L6.
func TestSmallMachineEndToEnd(t *testing.T) {
	cfg := machine.Config{Topology: topo.Grid(2, 3), Capacity: 14, CommCapacity: 2}
	for _, spec := range bench.ExtendedCatalog() {
		if _, err := core.New().CompileContext(t.Context(), spec.Build(), cfg); err != nil {
			t.Errorf("%s on grid: %v", spec.Name, err)
		}
	}
}
