package circuit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGateKind(t *testing.T) {
	cases := []struct {
		g    Gate
		want GateKind
	}{
		{Gate{Name: "ms", Qubits: []int{0, 1}}, Kind2Q},
		{Gate{Name: "cx", Qubits: []int{2, 3}}, Kind2Q},
		{Gate{Name: "r", Qubits: []int{0}}, Kind1Q},
		{Gate{Name: "rz", Qubits: []int{5}}, Kind1Q},
		{Gate{Name: "barrier", Qubits: []int{0, 1, 2}}, KindBarrier},
		{Gate{Name: "measure", Qubits: []int{0}}, KindMeasure},
	}
	for _, c := range cases {
		if got := c.g.Kind(); got != c.want {
			t.Errorf("Kind(%s) = %v, want %v", c.g.Name, got, c.want)
		}
	}
}

func TestGateKindString(t *testing.T) {
	if Kind1Q.String() != "1q" || Kind2Q.String() != "2q" {
		t.Fatalf("kind strings wrong: %s %s", Kind1Q, Kind2Q)
	}
	if KindBarrier.String() != "barrier" || KindMeasure.String() != "measure" {
		t.Fatalf("kind strings wrong: %s %s", KindBarrier, KindMeasure)
	}
	if got := GateKind(42).String(); !strings.Contains(got, "42") {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestGateOther(t *testing.T) {
	g := Gate{Name: "ms", Qubits: []int{3, 7}}
	if g.Other(3) != 7 || g.Other(7) != 3 {
		t.Fatalf("Other: got %d,%d", g.Other(3), g.Other(7))
	}
}

func TestGateOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-operand should panic")
		}
	}()
	g := Gate{Name: "ms", Qubits: []int{3, 7}}
	g.Other(5)
}

func TestGateOtherPanicsOn1Q(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on 1q gate should panic")
		}
	}()
	g := Gate{Name: "r", Qubits: []int{3}}
	g.Other(3)
}

func TestGateUses(t *testing.T) {
	g := Gate{Name: "ms", Qubits: []int{1, 4}}
	if !g.Uses(1) || !g.Uses(4) || g.Uses(2) {
		t.Fatal("Uses wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	c := New("t", 4)
	if err := c.Append(Gate{Name: "ms", Qubits: []int{0, 4}}); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := c.Append(Gate{Name: "ms", Qubits: []int{-1, 2}}); err == nil {
		t.Error("expected negative-operand error")
	}
	if err := c.Append(Gate{Name: "ms", Qubits: []int{2, 2}}); err == nil {
		t.Error("expected repeated-operand error")
	}
	if err := c.Append(Gate{Name: "ms", Qubits: nil}); err == nil {
		t.Error("expected empty-operand error")
	}
	if err := c.Append(Gate{Name: "ms", Qubits: []int{0, 1}}); err != nil {
		t.Errorf("valid gate rejected: %v", err)
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend should panic on invalid gate")
		}
	}()
	c := New("t", 2)
	c.MustAppend(Gate{Name: "ms", Qubits: []int{0, 9}})
}

func TestCounts(t *testing.T) {
	c := New("t", 6)
	c.Add2Q("ms", 0, 1)
	c.Add2Q("ms", 2, 3)
	c.Add1Q("r", 0, math.Pi, 0)
	c.Add1Q("rz", 1, 0.5)
	c.MustAppend(Gate{Name: "measure", Qubits: []int{0}})
	if got := c.Count2Q(); got != 2 {
		t.Errorf("Count2Q = %d, want 2", got)
	}
	if got := c.Count1Q(); got != 2 {
		t.Errorf("Count1Q = %d, want 2", got)
	}
	idx := c.TwoQubitGates()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("TwoQubitGates = %v", idx)
	}
}

func TestUsedQubits(t *testing.T) {
	c := New("t", 6)
	c.Add2Q("ms", 1, 4)
	c.Add1Q("r", 5)
	got := c.UsedQubits()
	want := []int{1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("UsedQubits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UsedQubits = %v, want %v", got, want)
		}
	}
}

func TestInteractionCount(t *testing.T) {
	c := New("t", 4)
	c.Add2Q("ms", 0, 1)
	c.Add2Q("ms", 1, 0) // same unordered pair
	c.Add2Q("ms", 2, 3)
	m := c.InteractionCount()
	if m[0*4+1] != 2 {
		t.Errorf("pair (0,1) count = %d, want 2", m[0*4+1])
	}
	if m[2*4+3] != 1 {
		t.Errorf("pair (2,3) count = %d, want 1", m[2*4+3])
	}
	if len(m) != 2 {
		t.Errorf("distinct pairs = %d, want 2", len(m))
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New("t", 4)
	c.Add2Q("ms", 0, 1, 0.25)
	d := c.Clone()
	d.Gates[0].Qubits[0] = 3
	d.Gates[0].Params[0] = 9
	if c.Gates[0].Qubits[0] != 0 || c.Gates[0].Params[0] != 0.25 {
		t.Fatal("Clone shares state with original")
	}
}

func TestDepth(t *testing.T) {
	c := New("t", 4)
	// Layer structure: (0,1)(2,3) || (1,2) || (0,1)
	c.Add2Q("ms", 0, 1)
	c.Add2Q("ms", 2, 3)
	c.Add2Q("ms", 1, 2)
	c.Add2Q("ms", 0, 1)
	if got := c.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	empty := New("e", 3)
	if empty.Depth() != 0 {
		t.Error("empty circuit depth should be 0")
	}
}

func TestDepthIgnoresBarrier(t *testing.T) {
	c := New("t", 2)
	c.Add2Q("ms", 0, 1)
	c.MustAppend(Gate{Name: "barrier", Qubits: []int{0, 1}})
	c.Add2Q("ms", 0, 1)
	if got := c.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
}

func TestValidate(t *testing.T) {
	c := New("t", 3)
	c.Add2Q("ms", 0, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	c.Gates = append(c.Gates, Gate{Name: "ms", Qubits: []int{0, 5}})
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range operand")
	}
	bad := &Circuit{Name: "b", NumQubits: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for empty register")
	}
	dup := New("d", 3)
	dup.Gates = append(dup.Gates, Gate{Name: "ms", Qubits: []int{1, 1}})
	if err := dup.Validate(); err == nil {
		t.Fatal("expected validation error for duplicate operand")
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Name: "ms", Qubits: []int{0, 1}, Params: []float64{0.5}}
	if got := g.String(); got != "ms(0.5) q[0],q[1]" {
		t.Errorf("String = %q", got)
	}
	g2 := Gate{Name: "h", Qubits: []int{3}}
	if got := g2.String(); got != "h q[3]" {
		t.Errorf("String = %q", got)
	}
}

func TestCircuitString(t *testing.T) {
	c := New("demo", 2)
	c.Add2Q("ms", 0, 1)
	s := c.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "ms q[0],q[1]") {
		t.Errorf("String output missing content: %q", s)
	}
}

func TestDecomposeBasics(t *testing.T) {
	c := New("t", 2)
	c.Add1Q("h", 0)
	c.Add2Q("cx", 0, 1)
	c.MustAppend(Gate{Name: "measure", Qubits: []int{0}})
	d, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range d.Gates {
		if !IsNative(g.Name) {
			t.Errorf("gate %d (%q) not native", i, g.Name)
		}
	}
	if got := d.Count2Q(); got != 1 {
		t.Errorf("cx should cost exactly 1 MS, got %d 2Q gates", got)
	}
}

func TestDecompose2QCosts(t *testing.T) {
	cases := []struct {
		name   string
		params []float64
		wantMS int
	}{
		{"cx", nil, 1},
		{"cz", nil, 1},
		{"cp", []float64{0.7}, 2},
		{"cu1", []float64{0.7}, 2},
		{"rzz", []float64{0.7}, 2},
		{"swap", nil, 3},
		{"ms", []float64{0.25}, 1},
	}
	for _, tc := range cases {
		c := New("t", 2)
		c.Add2Q(tc.name, 0, 1, tc.params...)
		d, err := Decompose(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := d.Count2Q(); got != tc.wantMS {
			t.Errorf("%s: MS count = %d, want %d", tc.name, got, tc.wantMS)
		}
		if got := MSCost(tc.name); got != tc.wantMS {
			t.Errorf("MSCost(%s) = %d, want %d", tc.name, got, tc.wantMS)
		}
	}
}

func TestDecompose1QGates(t *testing.T) {
	names := []string{"x", "y", "z", "s", "sdg", "t", "tdg", "h", "rx", "ry", "rz", "r", "u", "u3"}
	for _, name := range names {
		c := New("t", 1)
		c.Add1Q(name, 0, 0.1, 0.2, 0.3)
		d, err := Decompose(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Count2Q() != 0 {
			t.Errorf("%s: unexpected 2Q gates", name)
		}
		if MSCost(name) != 0 {
			t.Errorf("MSCost(%s) != 0", name)
		}
		for _, g := range d.Gates {
			if !IsNative(g.Name) {
				t.Errorf("%s decomposed to non-native %q", name, g.Name)
			}
		}
	}
}

func TestDecomposeUnknownGate(t *testing.T) {
	c := New("t", 3)
	c.MustAppend(Gate{Name: "fredkin", Qubits: []int{0, 1, 2}})
	if _, err := Decompose(c); err == nil {
		t.Fatal("expected error for unknown gate")
	}
}

func TestDecomposeBarrier(t *testing.T) {
	c := New("t", 3)
	c.MustAppend(Gate{Name: "barrier", Qubits: []int{0, 1, 2}})
	d, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Gates) != 1 || d.Gates[0].Kind() != KindBarrier {
		t.Fatalf("barrier not preserved: %v", d.Gates)
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates.
var raceEnabled bool

// TestDecomposeAllocs pins that expanding swap and ccx allocates per
// block of arena storage, not per gate.
func TestDecomposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxAllocs = 12
	for name, qubits := range map[string][]int{"swap": {0, 1}, "ccx": {0, 1, 2}} {
		c := New(name, 3)
		for range 100 {
			c.MustAppend(Gate{Name: name, Qubits: qubits})
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := Decompose(c); err != nil {
				t.Fatal(err)
			}
		}); n > maxAllocs {
			t.Errorf("Decompose of 100 %s gates makes %.0f allocations, want at most %d", name, n, maxAllocs)
		}
	}
}

// randomCircuit builds a random MS-only circuit for property tests.
func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	c := New("rand", n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		c.Add2Q("ms", a, b)
	}
	return c
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5+rng.Intn(10), rng.Intn(50))
		d := c.Clone()
		if d.NumQubits != c.NumQubits || len(d.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if c.Gates[i].String() != d.Gates[i].String() {
				return false
			}
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecomposePreserves2QPairs(t *testing.T) {
	// Property: decomposition preserves the multiset of interacting pairs
	// (each cx touches exactly the same pair as its MS).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		c := New("p", n)
		for i := 0; i < 30; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.Add2Q("cx", a, b)
		}
		d, err := Decompose(c)
		if err != nil {
			return false
		}
		want := c.InteractionCount()
		got := d.InteractionCount()
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDepthBounds(t *testing.T) {
	// Property: 1 <= Depth <= #gates for non-empty circuits.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4+rng.Intn(6), 1+rng.Intn(40))
		d := c.Depth()
		return d >= 1 && d <= len(c.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeasureCbitHelpers(t *testing.T) {
	c := New("m", 3)
	c.AddMeasure(1, 4)
	if g := c.Gates[0]; g.Kind() != KindMeasure || g.Qubits[0] != 1 || g.Cbit != 4 {
		t.Fatalf("AddMeasure gate = %+v", g)
	}
	// CopyGate preserves the classical wiring; Clone does too.
	d := New("copy", 3)
	if err := d.CopyGate(c.Gates[0]); err != nil {
		t.Fatal(err)
	}
	if d.Gates[0].Cbit != 4 {
		t.Errorf("CopyGate dropped Cbit: %+v", d.Gates[0])
	}
	if cl := c.Clone(); cl.Gates[0].Cbit != 4 {
		t.Errorf("Clone dropped Cbit: %+v", cl.Gates[0])
	}
	// Negative classical targets are rejected on append and by Validate.
	if err := c.Append(Gate{Name: "measure", Qubits: []int{0}, Cbit: -1}); err == nil {
		t.Error("Append accepted negative Cbit")
	}
	c.Gates = append(c.Gates, Gate{Name: "measure", Qubits: []int{0}, Cbit: -2})
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted negative Cbit")
	}
}
