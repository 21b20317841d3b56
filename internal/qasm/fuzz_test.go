package qasm

import (
	"testing"
)

// fuzzSeeds start FuzzQASM's corpus; the golden corpus pins their parses.
var fuzzSeeds = []string{
	"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n",
	"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nrz(0.1) q[0];\nmeasure q -> c;\n",
	"OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncreg c[4];\nbarrier a;\nmeasure b[1] -> c[3];\n",
	"OPENQASM 2.0;\nqreg q[4];\ngate foo a,b { cx a,b; h a; }\nfoo q[0],q[2];\n",
	"OPENQASM 2.0;\nqreg q[1];\nu2(pi/2,-pi/4) q[0];\n",
	"OPENQASM 2.0;\nqreg q[2];\ncp(0.25) q[0],q[1];\n",
}

// FuzzQASM exercises the parser on arbitrary input (it must reject or
// accept, never panic) and, for accepted programs, pins that the limits
// counted exactly what was built, and the round-trip property: writing the
// parsed circuit and re-parsing it reproduces the same register size and
// gate stream — names, operands, parameters, and measurement wiring
// included.
func FuzzQASM(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse("fuzz", src)
		if err != nil {
			return // rejected input is fine; panics are the finding
		}
		checkMeasure(t, src, c)
		out, err := WriteString(c)
		if err != nil {
			t.Fatalf("parsed circuit failed to serialize: %v", err)
		}
		back, err := Parse("fuzz", out)
		if err != nil {
			t.Fatalf("writer output failed to re-parse: %v\n%s", err, out)
		}
		if back.NumQubits != c.NumQubits {
			t.Fatalf("round trip changed register size: %d -> %d", c.NumQubits, back.NumQubits)
		}
		if len(back.Gates) != len(c.Gates) {
			t.Fatalf("round trip changed gate count: %d -> %d\n%s", len(c.Gates), len(back.Gates), out)
		}
		for i, g := range c.Gates {
			h := back.Gates[i]
			if g.Name != h.Name || len(g.Qubits) != len(h.Qubits) || len(g.Params) != len(h.Params) {
				t.Fatalf("gate %d changed: %v -> %v", i, g, h)
			}
			for j := range g.Qubits {
				if g.Qubits[j] != h.Qubits[j] {
					t.Fatalf("gate %d operand %d changed: %v -> %v", i, j, g, h)
				}
			}
			for j := range g.Params {
				if g.Params[j] != h.Params[j] {
					t.Fatalf("gate %d param %d changed: %g -> %g", i, j, g.Params[j], h.Params[j])
				}
			}
			if g.Kind().String() == "measure" && g.Cbit != h.Cbit {
				t.Fatalf("gate %d measurement wiring changed: c[%d] -> c[%d]", i, g.Cbit, h.Cbit)
			}
		}
	})
}
