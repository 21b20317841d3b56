package qasm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates.
var raceEnabled bool

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nestedDoubling returns a program whose one application expands, through
// levels nested two-call gate definitions, to 2^levels copies of the body
// of g0.
func nestedDoubling(levels int, body string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\nqreg q[1];\ngate g0 a { %s }\n", body)
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "g%d q[0];\n", levels)
	return b.String()
}

// Programs just over a limit are rejected before any gate is built, so the
// rejection costs little however much the program asks for.
func TestExpansionLimits(t *testing.T) {
	barriers := "OPENQASM 2.0;\nqreg q[65536];\n" + strings.Repeat("barrier q;\n", 65)
	// 65 parameters on each of 65,536 gates.
	wideParams := "OPENQASM 2.0;\nqreg q[65536];\nfoo(0" + strings.Repeat(",0", 64) + ") q;\n"
	// Applications of empty definitions: 2^23 - 1, then 3 more.
	empty := nestedDoubling(22, "") + "g1 q[0];\n"
	// 65,536 applications of g, each 129 steps: g, the 127 instructions of
	// t+t+...+t, and rz.
	longExpr := "OPENQASM 2.0;\nqreg q[65536];\ngate g(t) a { rz(t" + strings.Repeat("+t", 63) + ") a; }\ng(1) q;\n"
	cases := []struct {
		name, src, want string
	}{
		{"one register", "OPENQASM 2.0;\nqreg q[65537];\nh q;\n",
			`qasm "one register": line 2: register "q" takes the program past 65536 qubits`},
		{"two registers", "OPENQASM 2.0;\nqreg a[40000];\nqreg b[25537];\nh a;\n",
			`qasm "two registers": line 3: register "b" takes the program past 65536 qubits`},
		{"classical bits", "OPENQASM 2.0;\nqreg q[1];\ncreg c[65537];\n",
			`qasm "classical bits": line 3: register "c" takes the program past 65536 classical bits`},
		{"nested definitions", nestedDoubling(20, "h a;") + "h q[0];\n",
			`qasm "nested definitions": line 25: "h" takes the program past 1048576 gates`},
		{"barrier operands", barriers,
			`qasm "barrier operands": line 67: "barrier" takes the program past 4194304 gate operands`},
		{"wide parameters", wideParams,
			`qasm "wide parameters": line 3: "foo" takes the program past 4194304 gate parameters`},
		// 5 parameters on each of 2^20 gates.
		{"nested parameters", nestedDoubling(20, "foo(0,0,0,0,0) a;"),
			`qasm "nested parameters": line 24: "g20" takes the program past 4194304 gate parameters`},
		{"empty definitions", empty,
			`qasm "empty definitions": line 27: "g1" takes the program past 8388608 expansion steps`},
		{"long expression", longExpr,
			`qasm "long expression": line 4: "g" takes the program past 8388608 expansion steps`},
	}
	for _, tc := range cases {
		var err error
		n := allocatedBytes(func() { _, err = Parse(tc.name, tc.src) })
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
		if n >= 1<<20 {
			t.Errorf("%s: rejection allocated %d bytes, want < 1 MB", tc.name, n)
		}
	}
}

// A program exactly at every limit passes the checks. The expansions are
// counted without building them.
func TestExpansionAtLimits(t *testing.T) {
	for _, tc := range []struct {
		src   string
		gates int
	}{
		{nestedDoubling(20, "h a;"), 1 << 20},            // MaxGates
		{nestedDoubling(20, "foo(0,0,0,0) a;"), 1 << 20}, // MaxParams
		{nestedDoubling(22, "") + "g0 q[0];\n", 0},       // maxSteps
	} {
		if e, err := measure(tc.src); err != nil || e.gates != tc.gates {
			t.Errorf("count = %d gates, %v; want %d gates", e.gates, err, tc.gates)
		}
	}
	src := "OPENQASM 2.0;\nqreg a[65535];\nqreg b[1];\ncreg c[65536];\n" + strings.Repeat("barrier a,b;\n", 64)
	if _, err := Parse("at", src); err != nil {
		t.Fatal(err)
	}
}

// measure parses src and returns count's measure of what it expands to.
func measure(src string) (expansion, error) {
	p := &parser{lex: lexer{src: src, line: 1}, regs: map[string]regInfo{}}
	if err := p.parseProgram(); err != nil {
		return expansion{}, err
	}
	return p.count()
}

// checkMeasure fails t unless count measured exactly the gates, operands
// and parameters of c, the circuit Parse built from src.
func checkMeasure(t *testing.T, src string, c *circuit.Circuit) {
	t.Helper()
	e, err := measure(src)
	if err != nil {
		t.Fatalf("Parse accepted what count rejects: %v", err)
	}
	operands, params := 0, 0
	for _, g := range c.Gates {
		operands += len(g.Qubits)
		params += len(g.Params)
	}
	if e.gates != len(c.Gates) || e.operands != operands || e.params != params {
		t.Fatalf("count measured %d gates, %d operands, %d parameters; Parse built %d, %d, %d\n%s",
			e.gates, e.operands, e.params, len(c.Gates), operands, params, src)
	}
}

// randomProgram returns a program whose gate definitions call built-in
// gates and earlier definitions, nested, broadcast, empty and
// parameterized, sometimes calling themselves or later definitions.
func randomProgram(rng *rand.Rand) string {
	var b strings.Builder
	n := 2 + rng.Intn(4)
	fmt.Fprintf(&b, "OPENQASM 2.0;\nqreg q[%d];\nqreg r[%d];\ncreg c[%d];\n", n, n, n)
	list := func(prefix string, k int) string {
		var s []string
		for i := range k {
			s = append(s, fmt.Sprintf("%s%d", prefix, i))
		}
		return strings.Join(s, ",")
	}
	// call returns an application of a built-in gate or of definition
	// g0..g(defs-1) to qubit names from args, with parameters from params.
	type def struct{ nparams, nargs int }
	var defs []def
	call := func(args []string, params []string, limit int) string {
		pick := func() string { return args[rng.Intn(len(args))] }
		param := func() string {
			if len(params) > 0 && rng.Intn(2) == 0 {
				return params[rng.Intn(len(params))] + "*2"
			}
			return "pi/4"
		}
		if limit > 0 && rng.Intn(2) == 0 {
			g := rng.Intn(limit)
			d := defs[g]
			if d.nargs > len(args) {
				return "h " + pick() + ";"
			}
			var ps []string
			for range d.nparams {
				ps = append(ps, param())
			}
			perm := rng.Perm(len(args))[:d.nargs]
			var as []string
			for _, i := range perm {
				as = append(as, args[i])
			}
			return fmt.Sprintf("g%d(%s) %s;", g, strings.Join(ps, ","), strings.Join(as, ","))
		}
		switch rng.Intn(6) {
		case 0:
			return "rz(" + param() + ") " + pick() + ";"
		case 1:
			return "u2(" + param() + "," + param() + ") " + pick() + ";"
		case 2:
			return "id " + pick() + ";"
		case 3:
			if len(args) > 1 {
				perm := rng.Perm(len(args))
				return "cx " + args[perm[0]] + "," + args[perm[1]] + ";"
			}
			return "u2(" + param() + ") " + pick() + ";"
		case 4:
			return "barrier " + strings.Join(args, ",") + ";"
		default:
			return "foo(" + param() + "," + param() + "," + param() + ") " + pick() + ";"
		}
	}
	for g := range 1 + rng.Intn(6) {
		d := def{rng.Intn(3), 1 + rng.Intn(3)}
		var params, args []string
		for i := range d.nparams {
			params = append(params, fmt.Sprintf("p%d", i))
		}
		for i := range d.nargs {
			args = append(args, fmt.Sprintf("a%d", i))
		}
		// Defining g before its body lets the body call g itself, and
		// sometimes a later definition.
		defs = append(defs, d)
		limit := g
		if rng.Intn(10) == 0 {
			limit = g + 1
		}
		fmt.Fprintf(&b, "gate g%d", g)
		if d.nparams > 0 {
			fmt.Fprintf(&b, "(%s)", list("p", d.nparams))
		}
		fmt.Fprintf(&b, " %s {", list("a", d.nargs))
		for range rng.Intn(4) {
			b.WriteString(" " + call(args, params, limit))
		}
		b.WriteString(" }\n")
	}
	regs := []string{"q", "r", "q[0]", "r[1]", "q[1]"}
	for range 1 + rng.Intn(8) {
		b.WriteString(call(regs, nil, len(defs)) + "\n")
	}
	if rng.Intn(3) == 0 {
		b.WriteString("measure q -> c;\n")
	}
	return b.String()
}

// count measures exactly what build makes of every accepted program.
func TestCountMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for range 2000 {
		src := randomProgram(rng)
		c, err := Parse("random", src)
		if err != nil {
			continue
		}
		accepted++
		checkMeasure(t, src, c)
	}
	if accepted < 500 {
		t.Errorf("only %d of 2000 random programs parsed", accepted)
	}
}

// Parsing a job-sized body allocates a bounded number of objects: no
// token slice and no per-statement or per-operand allocation, and a gate
// slice made at its final length.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src, err := WriteString(bench.Random(40, 400, 7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse("job", src)
	if err != nil {
		t.Fatal(err)
	}
	if cap(c.Gates) != len(c.Gates) {
		t.Errorf("gate slice has capacity %d for %d gates", cap(c.Gates), len(c.Gates))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse("job", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Parse of a %d-byte body made %.0f allocations, want at most 200", len(src), allocs)
	}
}

// BenchmarkParse parses the job-sized body of TestParseAllocs.
func BenchmarkParse(b *testing.B) {
	src, err := WriteString(bench.Random(40, 400, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse("job", src); err != nil {
			b.Fatal(err)
		}
	}
}
