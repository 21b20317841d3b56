package qasm

import (
	"slices"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
)

// TestWriteParseCompileOracle is a differential oracle across layers: for
// the Table II programs and the first 10 paper-suite circuits,
// Parse(WriteString(c)) must equal c gate for gate, and compiling it must
// give both compilers' shuttle counts and operation traces exactly as
// compiling c directly does.
func TestWriteParseCompileOracle(t *testing.T) {
	circs := []*circuit.Circuit{}
	for _, spec := range bench.Catalog() {
		circs = append(circs, spec.Build())
	}
	circs = append(circs, bench.RandomSuite(bench.DefaultRandomSuiteParams())[:10]...)
	compilers := map[string]func() *compiler.Compiler{"baseline": baseline.New, "optimized": core.New}
	cfg := machine.PaperL6()
	for _, c := range circs {
		src, err := WriteString(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		parsed, err := Parse(c.Name, src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !sameCircuit(c, parsed) {
			t.Errorf("%s: Parse(WriteString(c)) differs from c", c.Name)
		}
		for name, newCompiler := range compilers {
			direct, err := newCompiler().CompileContext(t.Context(), c, cfg)
			if err != nil {
				t.Fatalf("%s/%s direct: %v", c.Name, name, err)
			}
			viaQASM, err := newCompiler().CompileContext(t.Context(), parsed, cfg)
			if err != nil {
				t.Fatalf("%s/%s via QASM: %v", c.Name, name, err)
			}
			if viaQASM.Shuttles != direct.Shuttles {
				t.Errorf("%s/%s: %d shuttles via QASM, %d direct", c.Name, name, viaQASM.Shuttles, direct.Shuttles)
			}
			if !slices.Equal(viaQASM.Ops, direct.Ops) {
				t.Errorf("%s/%s: trace via QASM differs from the direct compile's", c.Name, name)
			}
		}
	}
}
