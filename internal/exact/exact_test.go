package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"muzzle/internal/baseline"
	"muzzle/internal/circuit"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

func fig4Circuit() *circuit.Circuit {
	c := circuit.New("fig4", 5)
	c.Add2Q("ms", 1, 2)
	c.Add2Q("ms", 2, 3)
	c.Add2Q("ms", 1, 2)
	c.Add2Q("ms", 2, 4)
	return c
}

// TestFigure4Optimum: the true optimum of the Fig. 4 program is 1 shuttle —
// exactly what the future-ops policy achieves (the paper's point).
func TestFigure4Optimum(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	placement := [][]int{{0, 1}, {2, 3, 4}}
	got, err := MinShuttles(fig4Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("optimum = %d, want 1", got)
	}
}

func TestCoLocatedNeedsNothing(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 1)
	c.Add2Q("ms", 0, 1)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	got, err := MinShuttles(c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("optimum = %d, want 0", got)
	}
}

func TestSingleCrossTrapGate(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	got, err := MinShuttles(c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("optimum = %d, want 1", got)
	}
}

func TestMultiHopDistance(t *testing.T) {
	// Ions at opposite ends of L4: the gate costs 3 hops minimum (move one
	// ion all the way) — or fewer if they meet midway: meeting in the
	// middle costs 1+2 or 2+1 = 3 as well.
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 3)
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 4, CommCapacity: 1}
	got, err := MinShuttles(c, cfg, [][]int{{0}, {1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("optimum = %d, want 3", got)
	}
}

func TestThirdTrapMeeting(t *testing.T) {
	// Two ions in full traps with an empty trap between them: the cheapest
	// co-location moves both into the middle (2 shuttles), which neither
	// heuristic direction policy would do on its own.
	c := circuit.New("x", 9)
	c.Add2Q("ms", 0, 5)
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 0}
	placement := [][]int{{0, 1, 2, 3}, {8}, {5, 4, 6, 7}}
	got, err := MinShuttles(c, cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("optimum = %d, want 2 (meet in the middle)", got)
	}
}

func TestCapacityRespected(t *testing.T) {
	// The destination trap is full; the optimum must pay to make room (or
	// meet elsewhere).
	c := circuit.New("x", 6)
	c.Add2Q("ms", 0, 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	placement := [][]int{{0, 1}, {2, 3, 4, 5}}
	got, err := MinShuttles(c, cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	// Moving ion 2 into T0 costs 1; moving ion 0 into full T1 is illegal
	// without first evicting (2 total). Optimum 1.
	if got != 1 {
		t.Fatalf("optimum = %d, want 1", got)
	}
}

func TestStateSpaceGuard(t *testing.T) {
	c := circuit.New("big", 40)
	c.Add2Q("ms", 0, 39)
	cfg := machine.PaperL6()
	placement := make([][]int, 6)
	for q := 0; q < 40; q++ {
		placement[q%6] = append(placement[q%6], q)
	}
	if _, err := MinShuttles(c, cfg, placement); err == nil {
		t.Fatal("expected intractability error for 40 ions on 6 traps")
	}
}

func TestErrors(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 3)
	if _, err := MinShuttles(c, machine.Config{}, [][]int{{0}}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := MinShuttles(c, cfg, [][]int{{}, {}}); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := MinShuttles(c, cfg, [][]int{{0, 1}, {2}}); err == nil {
		t.Error("unplaced gate qubit accepted")
	}
}

// TestHeuristicsNeverBeatOptimum is the optimality-gap property: on tiny
// random instances, both compilers (without re-ordering, which changes the
// gate order the optimum is defined over) produce at least as many shuttles
// as the exact optimum.
func TestHeuristicsNeverBeatOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nIons := 4 + rng.Intn(3) // 4-6 ions
		nTraps := 2 + rng.Intn(2)
		cfg := machine.Config{Topology: topo.Linear(nTraps), Capacity: 4, CommCapacity: 1}
		placement := make([][]int, nTraps)
		for q := 0; q < nIons; q++ {
			tr := rng.Intn(nTraps)
			for len(placement[tr]) >= cfg.MaxInitialLoad() {
				tr = (tr + 1) % nTraps
			}
			placement[tr] = append(placement[tr], q)
		}
		c := circuit.New("q", nIons)
		for i := 0; i < 3+rng.Intn(6); i++ {
			a, b := rng.Intn(nIons), rng.Intn(nIons)
			if a == b {
				continue
			}
			c.Add2Q("ms", a, b)
		}
		if c.Count2Q() == 0 {
			return true
		}
		opt, err := MinShuttles(c, cfg, placement)
		if err != nil {
			return true // capacity deadlocks are legal to skip
		}
		base, err := baseline.New().CompileMappedContext(t.Context(), c, cfg, placement)
		if err != nil {
			return true
		}
		noReorder := core.NewWithOptions(core.Options{DisableReorder: true})
		optim, err := noReorder.CompileMappedContext(t.Context(), c, cfg, placement)
		if err != nil {
			return true
		}
		return base.Shuttles >= opt && optim.Shuttles >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
