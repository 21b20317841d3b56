package qasm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"muzzle/internal/circuit"
)

const sampleSrc = `
OPENQASM 2.0;
include "qelib1.inc";
// the 9-gate sample program of paper Fig. 2
qreg q[6];
ms q[0],q[1];
ms q[2],q[3];
ms q[2],q[0];
ms q[4],q[5];
ms q[0],q[3];
ms q[2],q[5];
ms q[4],q[5];
ms q[0],q[1];
ms q[2],q[3];
`

func TestParseSample(t *testing.T) {
	c, err := Parse("fig2", sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 6 {
		t.Errorf("NumQubits = %d, want 6", c.NumQubits)
	}
	if len(c.Gates) != 9 {
		t.Fatalf("gates = %d, want 9", len(c.Gates))
	}
	if c.Gates[4].Qubits[0] != 0 || c.Gates[4].Qubits[1] != 3 {
		t.Errorf("gate 4 = %v", c.Gates[4])
	}
}

func TestParseParams(t *testing.T) {
	src := `qreg q[2];
rz(pi/2) q[0];
r(-pi/4, 2*pi) q[1];
rz(1.5e-3) q[0];
rz((pi+1)/2) q[1];
`
	c, err := Parse("p", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Gates[0].Params[0]; math.Abs(got-math.Pi/2) > 1e-15 {
		t.Errorf("pi/2 = %g", got)
	}
	if got := c.Gates[1].Params[0]; math.Abs(got+math.Pi/4) > 1e-15 {
		t.Errorf("-pi/4 = %g", got)
	}
	if got := c.Gates[1].Params[1]; math.Abs(got-2*math.Pi) > 1e-15 {
		t.Errorf("2*pi = %g", got)
	}
	if got := c.Gates[2].Params[0]; got != 1.5e-3 {
		t.Errorf("1.5e-3 = %g", got)
	}
	if got := c.Gates[3].Params[0]; math.Abs(got-(math.Pi+1)/2) > 1e-15 {
		t.Errorf("(pi+1)/2 = %g", got)
	}
}

func TestParseMeasureAndBarrier(t *testing.T) {
	src := `qreg q[3];
creg c[3];
h q[0];
barrier q;
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	c, err := Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []circuit.GateKind
	for _, g := range c.Gates {
		kinds = append(kinds, g.Kind())
	}
	want := []circuit.GateKind{circuit.Kind1Q, circuit.KindBarrier, circuit.KindMeasure, circuit.KindMeasure}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if len(c.Gates[1].Qubits) != 3 {
		t.Errorf("whole-register barrier should cover 3 qubits, got %v", c.Gates[1].Qubits)
	}
}

func TestParseWholeRegisterBroadcast(t *testing.T) {
	src := `qreg q[4];
h q;
`
	c, err := Parse("b", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 4 {
		t.Fatalf("h q over q[4] should expand to 4 gates, got %d", len(c.Gates))
	}
}

func TestParseGateDefinitionExpansion(t *testing.T) {
	src := `qreg q[2];
gate zz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }
zz(pi/3) q[0],q[1];
`
	c, err := Parse("g", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 3 {
		t.Fatalf("expanded gates = %d, want 3", len(c.Gates))
	}
	if c.Gates[1].Name != "rz" || math.Abs(c.Gates[1].Params[0]-math.Pi/3) > 1e-15 {
		t.Errorf("middle gate = %v", c.Gates[1])
	}
	if c.Gates[0].Name != "cx" || c.Gates[2].Name != "cx" {
		t.Errorf("outer gates = %v, %v", c.Gates[0], c.Gates[2])
	}
}

func TestParseNestedGateDefinition(t *testing.T) {
	src := `qreg q[2];
gate mycx a,b { cx a,b; }
gate double a,b { mycx a,b; mycx b,a; }
double q[0],q[1];
`
	c, err := Parse("n", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gates = %d, want 2", len(c.Gates))
	}
	if c.Gates[1].Qubits[0] != 1 || c.Gates[1].Qubits[1] != 0 {
		t.Errorf("argument permutation lost: %v", c.Gates[1])
	}
}

func TestParseMultipleQregs(t *testing.T) {
	src := `qreg a[2];
qreg b[3];
cx a[1],b[0];
`
	c, err := Parse("mq", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 5 {
		t.Errorf("NumQubits = %d, want 5", c.NumQubits)
	}
	g := c.Gates[0]
	if g.Qubits[0] != 1 || g.Qubits[1] != 2 {
		t.Errorf("offsets wrong: %v", g)
	}
}

func TestParseU1U2Aliases(t *testing.T) {
	src := `qreg q[1];
u1(0.5) q[0];
u2(0.1,0.2) q[0];
u3(0.1,0.2,0.3) q[0];
CX q[0],q[0];
`
	// CX q0,q0 is invalid (duplicate); split the check.
	src = strings.Replace(src, "CX q[0],q[0];\n", "", 1)
	c, err := Parse("u", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Name != "rz" {
		t.Errorf("u1 should alias rz, got %q", c.Gates[0].Name)
	}
	if c.Gates[1].Name != "u" || len(c.Gates[1].Params) != 3 {
		t.Errorf("u2 should alias u with 3 params, got %v", c.Gates[1])
	}
}

func TestParseCXAlias(t *testing.T) {
	src := "qreg q[2];\nCX q[0],q[1];\n"
	c, err := Parse("cx", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Name != "cx" {
		t.Errorf("CX should lower to cx, got %q", c.Gates[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no qreg", "h q[0];"},
		{"bad index", "qreg q[2];\nh q[5];"},
		{"negative size", "qreg q[0];"},
		{"unknown reg", "qreg q[2];\nh r[0];"},
		{"redeclared", "qreg q[2];\nqreg q[3];"},
		{"missing semicolon", "qreg q[2]\nh q[0];"},
		{"division by zero", "qreg q[1];\nrz(1/0) q[0];"},
		{"unsupported if", "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];"},
		{"unterminated gate", "qreg q[1];\ngate foo a { x a;"},
		{"classical as qubit", "qreg q[1];\ncreg c[1];\nh c[0];"},
		{"measure to qreg", "qreg q[2];\nmeasure q[0] -> q[1];"},
		{"duplicate operand", "qreg q[2];\ncx q[1],q[1];"},
		{"bad macro arity", "qreg q[2];\ngate foo a,b { cx a,b; }\nfoo q[0];"},
		{"unterminated string", "include \"abc"},
		{"stray char", "qreg q[2];\n@ q[0];"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.name, tc.src); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestRecursiveMacroRejected(t *testing.T) {
	src := `qreg q[1];
gate loop a { loop a; }
loop q[0];
`
	if _, err := Parse("rec", src); err == nil {
		t.Fatal("expected recursion depth error")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.New("rt", 4)
	c.Add1Q("h", 0)
	c.Add2Q("cx", 0, 1)
	c.Add2Q("ms", 2, 3, math.Pi/4)
	c.Add1Q("rz", 2, -1.25)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 1, 2, 3}})
	c.MustAppend(circuit.Gate{Name: "measure", Qubits: []int{0}})

	src, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse("rt", src)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\nsource:\n%s", err, src)
	}
	if got.NumQubits != c.NumQubits || len(got.Gates) != len(c.Gates) {
		t.Fatalf("round trip mismatch: %d/%d gates", len(got.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		if got.Gates[i].String() != c.Gates[i].String() {
			t.Errorf("gate %d: %q != %q", i, got.Gates[i], c.Gates[i])
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	c := circuit.New("bad", 2)
	c.Gates = append(c.Gates, circuit.Gate{Name: "ms", Qubits: []int{0, 7}})
	if _, err := WriteString(c); err == nil {
		t.Fatal("expected error writing invalid circuit")
	}
}

func TestParseWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test.qasm"
	c := circuit.New("test", 3)
	c.Add2Q("cx", 0, 2)
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "test" {
		t.Errorf("circuit name = %q, want %q (file stem)", got.Name, "test")
	}
	if len(got.Gates) != 1 || got.Gates[0].Name != "cx" {
		t.Errorf("gates = %v", got.Gates)
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/nope.qasm"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: Parse(Write(c)) == c for random native-gate circuits.
	gates := []struct {
		name  string
		arity int
		np    int
	}{
		{"r", 1, 2}, {"rz", 1, 1}, {"ms", 2, 1}, {"cx", 2, 0}, {"h", 1, 0},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		c := circuit.New("q", n)
		for i := 0; i < rng.Intn(60); i++ {
			spec := gates[rng.Intn(len(gates))]
			qs := rng.Perm(n)[:spec.arity]
			ps := make([]float64, spec.np)
			for j := range ps {
				ps[j] = (rng.Float64() - 0.5) * 4 * math.Pi
			}
			c.MustAppend(circuit.Gate{Name: spec.name, Qubits: qs, Params: ps})
		}
		src, err := WriteString(c)
		if err != nil {
			return false
		}
		got, err := Parse("q", src)
		if err != nil {
			return false
		}
		if got.NumQubits != c.NumQubits || len(got.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			a, b := c.Gates[i], got.Gates[i]
			if a.Name != b.Name || len(a.Qubits) != len(b.Qubits) || len(a.Params) != len(b.Params) {
				return false
			}
			for j := range a.Qubits {
				if a.Qubits[j] != b.Qubits[j] {
					return false
				}
			}
			for j := range a.Params {
				if math.Abs(a.Params[j]-b.Params[j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMeasureWiringPreserved(t *testing.T) {
	// Non-identity measure -> creg mapping: the classical targets must
	// survive parse -> write -> parse instead of being renumbered.
	src := `qreg q[3];
creg c[4];
h q[0];
measure q[0] -> c[3];
measure q[1] -> c[0];
measure q[2] -> c[2];
`
	c, err := Parse("wiring", src)
	if err != nil {
		t.Fatal(err)
	}
	wantCbits := []int{3, 0, 2}
	var got []int
	for _, g := range c.Gates {
		if g.Kind() == circuit.KindMeasure {
			got = append(got, g.Cbit)
		}
	}
	if len(got) != len(wantCbits) {
		t.Fatalf("measures = %v, want %v", got, wantCbits)
	}
	for i := range wantCbits {
		if got[i] != wantCbits[i] {
			t.Fatalf("classical wiring rewired: got %v, want %v", got, wantCbits)
		}
	}
	out, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"creg c[4];", "measure q[0] -> c[3];", "measure q[1] -> c[0];", "measure q[2] -> c[2];"} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	again, err := Parse("wiring", out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if c.Gates[i].Cbit != again.Gates[i].Cbit {
			t.Fatalf("gate %d cbit changed across round trip: %d != %d", i, c.Gates[i].Cbit, again.Gates[i].Cbit)
		}
	}
	// And the serialized form is a fixed point.
	out2, err := WriteString(again)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Errorf("write not stable:\n%s\nvs\n%s", out, out2)
	}
}

func TestMeasureBroadcastWiring(t *testing.T) {
	src := `qreg q[3];
creg c[3];
measure q -> c;
`
	c, err := Parse("bcast", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 3 {
		t.Fatalf("gates = %d, want 3", len(c.Gates))
	}
	for i, g := range c.Gates {
		if g.Qubits[0] != i || g.Cbit != i {
			t.Errorf("gate %d: q[%d] -> c[%d], want q[%d] -> c[%d]", i, g.Qubits[0], g.Cbit, i, i)
		}
	}
}

func TestMeasureCregOffsets(t *testing.T) {
	src := `qreg q[2];
creg a[2];
creg b[2];
measure q[0] -> b[1];
measure q[1] -> a[0];
`
	c, err := Parse("offs", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Cbit != 3 || c.Gates[1].Cbit != 0 {
		t.Errorf("creg offsets wrong: cbits = %d, %d (want 3, 0)", c.Gates[0].Cbit, c.Gates[1].Cbit)
	}
}

func TestMeasureErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"cbit out of range", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];"},
		{"size mismatch register", "qreg q[3];\ncreg c[2];\nmeasure q -> c;"},
		{"size mismatch single", "qreg q[2];\ncreg c[2];\nmeasure q -> c[0];"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.name, tc.src); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestParamShortestRoundTrip(t *testing.T) {
	c := circuit.New("fmt", 1)
	c.Add1Q("rz", 0, 0.1)
	c.Add1Q("rz", 0, 1e-7)
	c.Add1Q("rz", 0, -2.5)
	out, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "0.10000000000000001") {
		t.Errorf("0.1 serialized with %%17g noise:\n%s", out)
	}
	if !strings.Contains(out, "rz(0.1)") {
		t.Errorf("0.1 should serialize shortest:\n%s", out)
	}
	got, err := Parse("fmt", out)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range c.Gates {
		if got.Gates[i].Params[0] != g.Params[0] {
			t.Errorf("param %d: %v != %v (round trip must be exact)", i, got.Gates[i].Params[0], g.Params[0])
		}
	}
}

// TestPropertyRoundTrip is the full parse(write(parse(write(c)))) property:
// random circuits over the native + measurement gate set, with explicit
// classical wiring, must round-trip with exact gate, operand, classical
// index, and parameter equality (shortest-form floats parse back bit-equal).
func TestPropertyRoundTrip(t *testing.T) {
	gates := []struct {
		name  string
		arity int
		np    int
	}{
		{"r", 1, 2}, {"rz", 1, 1}, {"ms", 2, 1}, {"cx", 2, 0}, {"h", 1, 0},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		c := circuit.New("q", n)
		for i := 0; i < rng.Intn(60); i++ {
			spec := gates[rng.Intn(len(gates))]
			qs := rng.Perm(n)[:spec.arity]
			ps := make([]float64, spec.np)
			for j := range ps {
				ps[j] = (rng.Float64() - 0.5) * 4 * math.Pi
			}
			c.MustAppend(circuit.Gate{Name: spec.name, Qubits: qs, Params: ps})
		}
		// Shuffled classical wiring: qubit order and creg order differ.
		for _, q := range rng.Perm(n)[:rng.Intn(n+1)] {
			c.AddMeasure(q, rng.Intn(2*n))
		}
		src, err := WriteString(c)
		if err != nil {
			return false
		}
		got, err := Parse("q", src)
		if err != nil {
			return false
		}
		if !sameCircuit(c, got) {
			return false
		}
		src2, err := WriteString(got)
		if err != nil {
			return false
		}
		return src == src2 // serialized form is a fixed point
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sameCircuit reports whether a and b have the same register size and the
// same gates: names, operands, classical bits and parameters, all exact
// (shortest-form floats parse back bit-equal).
func sameCircuit(a, b *circuit.Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Name != gb.Name || ga.Cbit != gb.Cbit ||
			!slices.Equal(ga.Qubits, gb.Qubits) || !slices.Equal(ga.Params, gb.Params) {
			return false
		}
	}
	return true
}

func TestLexerComments(t *testing.T) {
	src := "qreg q[1]; // trailing comment\n// full line\nh q[0];"
	c, err := Parse("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 {
		t.Fatalf("gates = %d", len(c.Gates))
	}
}

func TestStripExt(t *testing.T) {
	if stripExt("foo.qasm") != "foo" || stripExt("bar") != "bar" || stripExt("a.b.c") != "a.b" {
		t.Fatal("stripExt wrong")
	}
}

// deepAfterShallow returns a program whose line 38 applies a definition,
// measured before at a depth it fits in, one level too deep, and whose
// later lines take the program past MaxGates.
func deepAfterShallow() string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[1];\nqreg big[65535];\ngate c0 a { h a; }\n")
	for i := 1; i <= maxMacroDepth-1; i++ {
		fmt.Fprintf(&b, "gate c%d a { c%d a; }\n", i, i-1)
	}
	// c31 nests h 32 levels below it, which fits at depth 0 but not at 1.
	fmt.Fprintf(&b, "gate w a { c%d a; }\nc%d q[0];\nw q[0];\n", maxMacroDepth-1, maxMacroDepth-1)
	b.WriteString(strings.Repeat("h big;\n", 17))
	return b.String()
}

// The lexer runs only as far as the parser reads, so of several errors the
// first in source order is reported, whether lexical or not; expansion
// errors come after every error in the source, and an application that
// nests too deep ends the count of the expansion, so its error comes
// before a later statement's limit.
func TestErrorOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		{"qreg q[2]\nh q[0];\n@", `qasm "order": line 2: expected ";", found "h"`},
		{"qreg q[2];\n@ q[0]\nh q[0]", `qasm: line 2: unexpected character '@'`},
		{"qreg q[1];\nrz(1/0) q[0];\n\"", `qasm "order": line 2: division by zero in expression`},
		{"qreg q[1];\nrz(1/0 @) q[0];", `qasm "order": line 2: division by zero in expression`},
		{"qreg q[2];\ncx q[1],q[1];\nh q[5];", `qasm "order": line 3: qubit index "5" out of range for q[2]`},
		{"qreg q[2];\ngate g a { g a; }\ng q[0];\ncx q[1],q[1];", `qasm "order": line 3: gate "g" expansion too deep (recursive definition?)`},
		{deepAfterShallow(), `qasm "order": line 38: gate "h" expansion too deep (recursive definition?)`},
	}
	for _, tc := range cases {
		_, err := Parse("order", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %s", tc.src, err, tc.want)
		}
	}
}

// Angle expressions may nest maxExprDepth levels, which bounds the parser's
// recursion however deep the input nests.
func TestExpressionDepth(t *testing.T) {
	nest := func(open, close string, n int) string {
		return "qreg q[1];\nrz(" + strings.Repeat(open, n) + "1" + strings.Repeat(close, n) + ") q[0];"
	}
	if _, err := Parse("deep", nest("(", ")", maxExprDepth)); err != nil {
		t.Errorf("%d nested parentheses: %v", maxExprDepth, err)
	}
	want := `qasm "deep": line 2: expression nested more than 64 levels deep`
	for _, src := range []string{nest("(", ")", maxExprDepth+1), nest("-", "", 1<<20), nest("(", "", 1<<20)} {
		if _, err := Parse("deep", src); err == nil || err.Error() != want {
			t.Errorf("%.20q...: error %v, want %s", src, err, want)
		}
	}
}
