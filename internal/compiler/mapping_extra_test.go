package compiler

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

func mapperCfg() machine.Config {
	return machine.Config{Topology: topo.Linear(4), Capacity: 6, CommCapacity: 2}
}

func clusteredCircuit() *circuit.Circuit {
	// Four cliques of 4 qubits each: optimal placement is one clique per
	// trap with zero cut.
	c := circuit.New("cliques", 16)
	for g := 0; g < 4; g++ {
		base := g * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				c.Add2Q("ms", base+i, base+j)
			}
		}
	}
	return c
}

func validPlacement(t *testing.T, c *circuit.Circuit, cfg machine.Config, placement [][]int) {
	t.Helper()
	if len(placement) != cfg.Topology.NumTraps() {
		t.Fatalf("placement has %d traps", len(placement))
	}
	seen := map[int]bool{}
	for tr, chain := range placement {
		if len(chain) > cfg.MaxInitialLoad() {
			t.Fatalf("trap %d overloaded (%d ions)", tr, len(chain))
		}
		for _, q := range chain {
			if q < 0 || q >= c.NumQubits || seen[q] {
				t.Fatalf("bad/duplicate qubit %d", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != c.NumQubits {
		t.Fatalf("placed %d of %d qubits", len(seen), c.NumQubits)
	}
}

func TestAllMappersProduceValidPlacements(t *testing.T) {
	c := clusteredCircuit()
	cfg := mapperCfg()
	mappers := []Placement{
		GreedyMapper{},
		RoundRobinMapper{},
		RandomMapper{Seed: 3},
		RefinedMapper{},
		RefinedMapper{Base: RandomMapper{Seed: 3}},
	}
	for _, m := range mappers {
		placement, err := m.Place(c, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		validPlacement(t, c, cfg, placement)
		if m.Name() == "" {
			t.Error("empty mapper name")
		}
	}
}

func TestMapperNames(t *testing.T) {
	if !strings.Contains((RefinedMapper{}).Name(), "greedy") {
		t.Errorf("refined default name = %q", (RefinedMapper{}).Name())
	}
	if !strings.Contains((RandomMapper{Seed: 7}).Name(), "7") {
		t.Errorf("random name = %q", (RandomMapper{Seed: 7}).Name())
	}
}

func TestGreedyBeatsRoundRobinOnClusters(t *testing.T) {
	c := clusteredCircuit()
	cfg := mapperCfg()
	greedy, err := (GreedyMapper{}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := (RoundRobinMapper{}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gw, rw := CutWeight(c, cfg, greedy), CutWeight(c, cfg, rr); gw >= rw {
		t.Errorf("greedy cut %d should beat round-robin cut %d on clustered circuits", gw, rw)
	}
	// Greedy finds the zero-cut solution here.
	if gw := CutWeight(c, cfg, greedy); gw != 0 {
		t.Errorf("greedy cut = %d, want 0 (one clique per trap)", gw)
	}
}

func TestRefinementNeverHurts(t *testing.T) {
	c := clusteredCircuit()
	cfg := mapperCfg()
	base, err := (RandomMapper{Seed: 99}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := (RefinedMapper{Base: RandomMapper{Seed: 99}}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bw, rw := CutWeight(c, cfg, base), CutWeight(c, cfg, refined)
	if rw > bw {
		t.Errorf("refinement increased cut: %d -> %d", bw, rw)
	}
	if rw == bw && bw > 0 {
		t.Logf("note: refinement found no improving swap (cut %d)", bw)
	}
}

func TestRefinementFindsClusterOptimum(t *testing.T) {
	// From a deliberately scrambled start, KL refinement should reach the
	// zero-cut clique placement (or very near it).
	c := clusteredCircuit()
	cfg := mapperCfg()
	refined, err := (RefinedMapper{Base: RandomMapper{Seed: 1}, MaxPasses: 20}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := CutWeight(c, cfg, refined); w > 6 {
		t.Errorf("refined cut = %d, want near 0", w)
	}
}

func TestRoundRobinRespectsLoad(t *testing.T) {
	c := circuit.New("wide", 16)
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 5, CommCapacity: 1}
	placement, err := (RoundRobinMapper{}).Place(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validPlacement(t, c, cfg, placement)
}

func TestMappersRejectOversubscription(t *testing.T) {
	c := circuit.New("huge", 50)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	for _, m := range []Placement{GreedyMapper{}, RoundRobinMapper{}, RandomMapper{}, RefinedMapper{}} {
		if _, err := m.Place(c, cfg); err == nil {
			t.Errorf("%s accepted oversubscription", m.Name())
		}
	}
}

func TestCompileWithMapper(t *testing.T) {
	c := clusteredCircuit()
	cfg := mapperCfg()
	resGreedy, err := testCompiler().CompileWithMapperContext(t.Context(), c, cfg, GreedyMapper{})
	if err != nil {
		t.Fatal(err)
	}
	resRandom, err := testCompiler().CompileWithMapperContext(t.Context(), c, cfg, RandomMapper{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The clique circuit compiles with zero shuttles under greedy mapping;
	// random mapping forces cross-trap traffic.
	if resGreedy.Shuttles != 0 {
		t.Errorf("greedy-mapped shuttles = %d, want 0", resGreedy.Shuttles)
	}
	if resRandom.Shuttles == 0 {
		t.Error("random-mapped clique circuit should need shuttles")
	}
}

// Property: every mapper yields a valid placement on random circuits, and
// KL refinement never increases the cut weight.
func TestQuickMappersValidAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		c := circuit.New("q", n)
		for i := 0; i < 10+rng.Intn(40); i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			c.Add2Q("ms", a, b)
		}
		cfg := machine.Config{Topology: topo.Linear(3), Capacity: 8, CommCapacity: 2}
		base, err := (RandomMapper{Seed: seed}).Place(c, cfg)
		if err != nil {
			return false
		}
		refined, err := (RefinedMapper{Base: RandomMapper{Seed: seed}}).Place(c, cfg)
		if err != nil {
			return false
		}
		// Valid placements.
		for _, p := range [][][]int{base, refined} {
			seen := map[int]bool{}
			total := 0
			for _, chain := range p {
				total += len(chain)
				for _, q := range chain {
					if seen[q] {
						return false
					}
					seen[q] = true
				}
			}
			if total != n {
				return false
			}
		}
		return CutWeight(c, cfg, refined) <= CutWeight(c, cfg, base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
