package qasm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"muzzle/internal/circuit"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus.golden from the current parser")

const goldenPath = "testdata/corpus.golden"

// errorInputs holds one input per error message the lexer and parser can
// produce. Each input has exactly one error, so its text does not depend on
// which of several errors the parser reports first.
var errorInputs = []struct{ name, src string }{
	{"lex-unterminated-string", "include \"abc\ndef"},
	{"lex-unexpected-character", "qreg q[2];\n@ q[0];"},
	{"expected-symbol", "qreg q[2]\nh q[0];"},
	{"expected-symbol-eof", "qreg q[2];\nh q[0]"},
	{"expected-identifier", "qreg [2];"},
	{"expected-version", "OPENQASM x;"},
	{"expected-statement", "qreg q[1];\n; h q[0];"},
	{"expected-include-path", "include foo;"},
	{"unsupported-statement", "qreg q[1];\nreset q[0];"},
	{"no-qreg", "OPENQASM 2.0;\ncreg c[2];"},
	{"expected-register-size", "qreg q[n];"},
	{"invalid-register-size", "qreg q[0];"},
	{"register-redeclared", "qreg q[2];\nqreg q[3];"},
	{"unknown-register", "qreg q[2];\nh r[0];"},
	{"classical-register-as-qubit", "qreg q[1];\ncreg c[1];\nh c[0];"},
	{"expected-qubit-index", "qreg q[2];\nh q[i];"},
	{"qubit-index-out-of-range", "qreg q[2];\nh q[5];"},
	{"unknown-classical-register", "qreg q[2];\nmeasure q[0] -> q[1];"},
	{"expected-bit-index", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[x];"},
	{"bit-index-out-of-range", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];"},
	{"measure-size-mismatch", "qreg q[3];\ncreg c[2];\nmeasure q -> c;"},
	{"unterminated-gate-body", "qreg q[1];\ngate foo a { x a;"},
	{"division-by-zero", "qreg q[1];\nrz(1/0) q[0];"},
	{"unknown-identifier", "qreg q[1];\nrz(theta) q[0];"},
	{"mismatched-register-lengths", "qreg a[2];\nqreg b[3];\ncx a,b;"},
	{"expansion-too-deep", "qreg q[1];\ngate loop a { loop a; }\nloop q[0];"},
	{"macro-qubit-arity", "qreg q[2];\ngate foo a,b { cx a,b; }\nfoo q[0];"},
	{"macro-param-arity", "qreg q[1];\ngate g(t) a { rz(t) a; }\ng q[0];"},
	{"macro-unknown-identifier", "qreg q[1];\ngate g(t) a { rz(s) a; }\ng(1) q[0];"},
	{"macro-division-by-zero", "qreg q[1];\ngate g(t) a { rz(1/t) a; }\ng(0) q[0];"},
	{"macro-unknown-qubit-argument", "qreg q[1];\ngate g a { x b; }\ng q[0];"},
	{"repeated-operand", "qreg q[2];\ncx q[1],q[1];"},
	{"macro-repeated-operand", "qreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];"},
	{"bad-number", "qreg q[1];\nrz(1.2.3) q[0];"},
	{"unexpected-token-in-expression", "qreg q[1];\nrz(*) q[0];"},
}

// edgeInputs pin accepted programs whose meaning is easy to lose in a
// rewrite: definitions resolved after the whole program is read, the last
// of two equal names winning, the built-in aliases, and broadcasts.
var edgeInputs = []struct{ name, src string }{
	{"use-before-definition", "qreg q[2];\nfoo q[0],q[1];\ngate foo a,b { cx a,b; }\n"},
	{"redefinition-wins", "qreg q[2];\ngate foo a { h a; }\nfoo q[0];\ngate foo a { x a; }\n"},
	{"repeated-formal-names", "qreg q[2];\ngate g(t,t) a,a { rz(t) a; }\ng(1,2) q[0],q[1];\n"},
	{"pi-shadows-parameter", "qreg q[1];\ngate g(pi) a { rz(pi/2) a; }\ng(1) q[0];\n"},
	{"id-dropped", "qreg q[2];\nid q[0];\nid q;\ngate w a { id a; h a; }\nw q[1];\n"},
	{"id-macro-overrides", "qreg q[1];\ngate id a { x a; }\nid q[0];\n"},
	{"aliases", "qreg q[2];\nCX q[0],q[1];\nu1(0.5) q[0];\nu2(0.1,0.2) q[1];\nu2(0.3) q[0];\nu3(0.1,0.2,0.3) q[1];\n"},
	{"broadcast", "qreg a[3];\nqreg b[3];\nqreg s[1];\ncx a,b;\ncx s,b;\nh a;\nbarrier a,s,a[1];\n"},
	{"macro-barrier-measure", "qreg q[2];\ncreg c[2];\ngate g a,b { barrier a,b,a; measure b; }\ng q[1],q[0];\nmeasure q -> c;\n"},
	{"expressions", "qreg q[1];\nrz(-(pi+1)*2/4--3) q[0];\nrz(+1e-3) q[0];\nrz(.5) q[0];\nrz(2E+2) q[0];\n"},
	{"macro-expressions", "qreg q[1];\ngate g(a,b) x { rz(a*b-a/b) x; r(-a,+b) x; }\ng(3,-2) q[0];\n"},
	{"wide-gate", "qreg q[4];\nfoo(1,2,3) q[0],q[1],q[2],q[3];\n"},
	{"empty-gate-body", "qreg q[1];\ngate e a { }\ne q[0];\nh q[0];\n"},
	{"comments-and-creg-offsets", "// c\nqreg q[2]; // t\ncreg a[2];\ncreg b[2];\nmeasure q[0] -> b[1];\nmeasure q[1] -> a[0];\n"},
}

// goldenCases returns the corpus as (name, source) pairs, in golden-file
// order: the FuzzQASM seeds, the accepted edge cases, and one input per
// error message. The Table II programs and paper-suite circuits are pinned
// by TestWriteParseCompileOracle instead.
func goldenCases() [][2]string {
	var cases [][2]string
	for i, s := range fuzzSeeds {
		cases = append(cases, [2]string{fmt.Sprintf("seed-%d", i), s})
	}
	for _, in := range edgeInputs {
		cases = append(cases, [2]string{"edge-" + in.name, in.src})
	}
	for _, in := range errorInputs {
		cases = append(cases, [2]string{"error-" + in.name, in.src})
	}
	return cases
}

// describeParse renders what Parse made of src: the register size and one
// line per gate (name, parameters in shortest exact form, operands, and the
// classical bit of a measurement or of any gate whose Cbit is set), or the
// error text.
func describeParse(name, src string) string {
	c, err := Parse(name, src)
	if err != nil {
		return "error " + err.Error() + "\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "qubits %d\n", c.NumQubits)
	for _, g := range c.Gates {
		b.WriteString(g.Name)
		if len(g.Params) > 0 {
			b.WriteByte('(')
			for i, p := range g.Params {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
			}
			b.WriteByte(')')
		}
		for i, q := range g.Qubits {
			if i == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(q))
		}
		if g.Kind() == circuit.KindMeasure || g.Cbit != 0 {
			fmt.Fprintf(&b, " -> %d", g.Cbit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParseGoldenCorpus pins every corpus input's parse, circuit or error
// text, against testdata/corpus.golden. Rewrite it only with
// go test ./internal/qasm -update.
func TestParseGoldenCorpus(t *testing.T) {
	cases := goldenCases()
	var file strings.Builder
	got := make(map[string]string, len(cases))
	for _, tc := range cases {
		desc := describeParse(tc[0], tc[1])
		got[tc[0]] = desc
		fmt.Fprintf(&file, "== %s ==\n%s", tc[0], desc)
	}
	path := filepath.FromSlash(goldenPath)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/qasm -update to create it)", err)
	}
	// A section starts at a "== name ==" line; no description line can
	// look like one, since each starts with "qubits", "error" or a gate name.
	want := map[string]string{}
	var head string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok && strings.HasSuffix(h, " ==\n") {
			head = strings.TrimSuffix(h, " ==\n")
			want[head] = ""
			continue
		}
		want[head] += line
	}
	if len(want) != len(cases) {
		t.Errorf("golden has %d cases, corpus has %d", len(want), len(cases))
	}
	for _, tc := range cases {
		w, ok := want[tc[0]]
		if !ok {
			t.Errorf("%s: missing from %s", tc[0], goldenPath)
			continue
		}
		if g := got[tc[0]]; g != w {
			gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
			for i := range max(len(gl), len(wl)) {
				var a, b string
				if i < len(gl) {
					a = gl[i]
				}
				if i < len(wl) {
					b = wl[i]
				}
				if a != b {
					t.Errorf("%s: line %d differs\n got: %s\nwant: %s", tc[0], i+1, a, b)
					break
				}
			}
		}
	}
}
