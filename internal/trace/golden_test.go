package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// goldenCompile is a small fixed compile whose trace holds every native gate
// op (r, rz, ms, measure) and every shuttle primitive (swap, split, move,
// merge): eight qubits on a 3-trap line with one free slot per trap, and
// long-range CX gates that force ions across traps.
func goldenCompile(t *testing.T) *compiler.Result {
	t.Helper()
	c := circuit.New("golden", 8)
	for q := 0; q < 8; q++ {
		c.Add1Q("h", q)
	}
	c.Add2Q("cx", 0, 7)
	c.Add1Q("rz", 3, 0.25)
	c.Add2Q("cx", 1, 6)
	c.Add1Q("rx", 5, 0.5)
	c.Add2Q("cx", 2, 5)
	c.Add2Q("cx", 0, 4)
	c.Add1Q("t", 7)
	c.Add2Q("cx", 7, 3)
	c.Add2Q("cx", 2, 0)
	c.Add2Q("cx", 5, 1)
	c.Add2Q("cx", 6, 4)
	for q := 0; q < 8; q++ {
		c.AddMeasure(q, q)
	}
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 1}
	res, err := core.New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkGolden compares got with testdata/name byte for byte; -update
// rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: got %d lines, want %d", path, len(gl), len(wl))
	}
}

func TestGoldenCoversEveryOpKind(t *testing.T) {
	res := goldenCompile(t)
	kinds := map[machine.OpKind]bool{}
	names := map[string]bool{}
	for _, op := range res.Ops {
		kinds[op.Kind] = true
		switch op.Kind {
		case machine.OpGate1Q, machine.OpGate2Q, machine.OpMeasure:
			names[op.Name.String()] = true
		}
	}
	for _, k := range []machine.OpKind{machine.OpGate1Q, machine.OpGate2Q, machine.OpSwap,
		machine.OpSplit, machine.OpMove, machine.OpMerge, machine.OpMeasure} {
		if !kinds[k] {
			t.Errorf("golden trace has no %s op", k)
		}
	}
	for _, n := range []string{"r", "rz", "ms", "measure"} {
		if !names[n] {
			t.Errorf("golden trace has no %s op", n)
		}
	}
}

func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenCompile(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.json.golden", buf.Bytes())
}

func TestGoldenSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSVG(&buf, goldenCompile(t), SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.svg.golden", buf.Bytes())
}
