package bench

import (
	"math"
	"runtime"
	"testing"

	"muzzle/internal/circuit"
)

// TestCatalogMatchesTableII pins the qubit and 2Q-gate counts of paper
// Table II for every NISQ benchmark.
func TestCatalogMatchesTableII(t *testing.T) {
	want := map[string][2]int{
		"Supremacy":     {64, 560},
		"QAOA":          {64, 1260},
		"SquareRoot":    {78, 1028},
		"QFT":           {64, 4032},
		"QuadraticForm": {64, 3400},
	}
	specs := Catalog()
	if len(specs) != 5 {
		t.Fatalf("catalog has %d entries, want 5", len(specs))
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", s.Name)
			continue
		}
		if s.Qubits != w[0] || s.Gates2Q != w[1] {
			t.Errorf("%s spec = (%d,%d), want (%d,%d)", s.Name, s.Qubits, s.Gates2Q, w[0], w[1])
		}
		c := s.Build()
		if c.NumQubits != w[0] {
			t.Errorf("%s circuit qubits = %d, want %d", s.Name, c.NumQubits, w[0])
		}
		if got := Count2QNative(c); got != w[1] {
			t.Errorf("%s native 2Q count = %d, want %d (Table II)", s.Name, got, w[1])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		// The static count helper must agree with a real decomposition.
		d, err := circuit.Decompose(c)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := d.Count2Q(); got != w[1] {
			t.Errorf("%s decomposed 2Q count = %d, want %d", s.Name, got, w[1])
		}
	}
}

func TestSupremacyIsNearestNeighbor(t *testing.T) {
	c := Supremacy()
	const cols = 8
	for _, g := range c.Gates {
		if !g.Is2Q() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		ra, ca := a/cols, a%cols
		rb, cb := b/cols, b%cols
		if abs(ra-rb)+abs(ca-cb) != 1 {
			t.Fatalf("gate %v is not grid-nearest-neighbor", g)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestQAOAEdgesDistinct(t *testing.T) {
	c := QAOA()
	seen := map[[2]int]bool{}
	edges := 0
	for _, g := range c.Gates {
		if g.Name != "rzz" {
			continue
		}
		edges++
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			t.Fatalf("duplicate QAOA edge (%d,%d)", a, b)
		}
		seen[[2]int{a, b}] = true
	}
	if edges != 630 {
		t.Fatalf("edges = %d, want 630", edges)
	}
}

func TestSquareRootHasShortAndLongRangeGates(t *testing.T) {
	c := SquareRoot()
	short, long := 0, 0
	for _, g := range c.Gates {
		if !g.Is2Q() {
			continue
		}
		d := abs(g.Qubits[0] - g.Qubits[1])
		if d == 1 {
			short++
		}
		if d >= c.NumQubits/4 {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("SquareRoot needs both short (%d) and long (%d) range gates (Section IV-B)", short, long)
	}
}

func TestQFTStructure(t *testing.T) {
	c := QFT(5)
	// 5 H gates + C(5,2)=10 CP gates.
	if got := c.Count2Q(); got != 10 {
		t.Errorf("QFT(5) CP count = %d, want 10", got)
	}
	if got := Count2QNative(c); got != 20 {
		t.Errorf("QFT(5) native count = %d, want 20", got)
	}
	// All-to-all: every pair appears exactly once.
	pairs := c.InteractionCount()
	if len(pairs) != 10 {
		t.Errorf("distinct pairs = %d, want 10", len(pairs))
	}
	// Angles halve with distance.
	for _, g := range c.Gates {
		if g.Name != "cp" {
			continue
		}
		d := abs(g.Qubits[0] - g.Qubits[1])
		want := math.Pi / math.Pow(2, float64(d))
		if math.Abs(g.Params[0]-want) > 1e-12 {
			t.Errorf("cp angle for distance %d = %g, want %g", d, g.Params[0], want)
		}
	}
}

func TestQuadraticFormAllToAll(t *testing.T) {
	c := QuadraticForm()
	pairs := c.InteractionCount()
	// 1700 distinct pairs, no repeats, spanning many distances.
	if len(pairs) != 1700 {
		t.Errorf("distinct pairs = %d, want 1700", len(pairs))
	}
	distances := map[int]bool{}
	for _, g := range c.Gates {
		if g.Name == "cp" {
			distances[abs(g.Qubits[0]-g.Qubits[1])] = true
		}
	}
	if len(distances) < 20 {
		t.Errorf("distance diversity = %d, want broad all-to-all spread", len(distances))
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := Random(10, 50, 7)
	b := Random(10, 50, 7)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed, different circuits")
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatal("same seed, different gate sequence")
		}
	}
	c := Random(10, 50, 8)
	same := len(a.Gates) == len(c.Gates)
	if same {
		identical := true
		for i := range a.Gates {
			if a.Gates[i].String() != c.Gates[i].String() {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical circuits")
		}
	}
}

func TestRandomGateCountExact(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		c := Random(20, n, 42)
		if got := c.Count2Q(); got != n {
			t.Errorf("Random 2Q count = %d, want %d", got, n)
		}
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates.
var raceEnabled bool

// TestRandomAllocs pins that Random sizes its gate list once: the
// suite-mean circuit costs a handful of allocations, the list itself about
// 125 KB of them.
func TestRandomAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxAllocs, maxBytes = 10, 200_000
	if n := testing.AllocsPerRun(5, func() { Random(70, 1438, 1) }); n > maxAllocs {
		t.Errorf("Random(70, 1438, 1) makes %.0f allocations, want at most %d", n, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Random(70, 1438, 1)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > maxBytes {
		t.Errorf("Random(70, 1438, 1) allocates %d B, want at most %d", b, maxBytes)
	}
}

func TestRandomPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"1 qubit":  func() { Random(1, 5, 0) },
		"negative": func() { Random(5, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRandomSuiteStatistics verifies the 120-circuit suite reproduces the
// paper's statistics: sizes 60-75, mean 2Q count near 1438 with substantial
// spread (sigma ~ 413).
func TestRandomSuiteStatistics(t *testing.T) {
	suite := RandomSuite(DefaultRandomSuiteParams())
	if len(suite) != 120 {
		t.Fatalf("suite size = %d, want 120", len(suite))
	}
	sizes := map[int]int{}
	sum, sumSq := 0.0, 0.0
	for _, c := range suite {
		sizes[c.NumQubits]++
		g := float64(c.Count2Q())
		sum += g
		sumSq += g * g
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []int{60, 65, 70, 75} {
		if sizes[s] != 30 {
			t.Errorf("size %d has %d circuits, want 30", s, sizes[s])
		}
	}
	mean := sum / 120
	std := math.Sqrt(sumSq/120 - mean*mean)
	if mean < 1438-120 || mean > 1438+120 {
		t.Errorf("mean 2Q gates = %.0f, want ~1438", mean)
	}
	if std < 413-150 || std > 413+150 {
		t.Errorf("std 2Q gates = %.0f, want ~413", std)
	}
}

func TestRandomSuiteDeterministic(t *testing.T) {
	a := RandomSuite(DefaultRandomSuiteParams())
	b := RandomSuite(DefaultRandomSuiteParams())
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Gates) != len(b[i].Gates) {
			t.Fatal("suite generation not deterministic")
		}
	}
}
