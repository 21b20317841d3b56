package circuit

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/decompose.golden from the current decomposer")

const decomposeGoldenPath = "testdata/decompose.golden"

// decomposeInputs holds one gate of every mnemonic decomposeGate accepts.
// Operands run against register order and parameters are distinct, so a
// swapped operand or a misplaced angle changes the rendering.
var decomposeInputs = []Gate{
	{Name: "r", Qubits: []int{2}, Params: []float64{0.25, 0.5}},
	{Name: "rz", Qubits: []int{1}, Params: []float64{0.75}},
	{Name: "ms", Qubits: []int{2, 0}, Params: []float64{0.125}},
	{Name: "barrier", Qubits: []int{2, 0, 1}},
	{Name: "measure", Qubits: []int{1}, Cbit: 2},
	{Name: "x", Qubits: []int{0}},
	{Name: "y", Qubits: []int{1}},
	{Name: "z", Qubits: []int{2}},
	{Name: "s", Qubits: []int{0}},
	{Name: "sdg", Qubits: []int{1}},
	{Name: "t", Qubits: []int{2}},
	{Name: "tdg", Qubits: []int{0}},
	{Name: "h", Qubits: []int{1}},
	{Name: "rx", Qubits: []int{2}, Params: []float64{0.3}},
	{Name: "ry", Qubits: []int{0}, Params: []float64{0.6}},
	{Name: "u", Qubits: []int{1}, Params: []float64{0.1, 0.2, 0.4}},
	{Name: "u3", Qubits: []int{2}, Params: []float64{0.8, 1.6, 3.2}},
	{Name: "cx", Qubits: []int{2, 1}},
	{Name: "cz", Qubits: []int{1, 0}},
	{Name: "cp", Qubits: []int{0, 2}, Params: []float64{0.9}},
	{Name: "cu1", Qubits: []int{2, 0}, Params: []float64{1.1}},
	{Name: "rzz", Qubits: []int{1, 2}, Params: []float64{1.3}},
	{Name: "swap", Qubits: []int{2, 0}},
	{Name: "ccx", Qubits: []int{2, 0, 1}},
}

// TestDecomposeGolden pins the native expansion of every accepted mnemonic
// against testdata/decompose.golden, one single-gate circuit per mnemonic
// rendered through Circuit.String. Rewrite it only with
//
//	go test ./internal/circuit -run TestDecomposeGolden -update
func TestDecomposeGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range decomposeInputs {
		c := New(g.Name, 3)
		c.MustAppend(g)
		native, err := Decompose(c)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		b.WriteString(native.String())
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decomposeGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decomposeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/circuit -run TestDecomposeGolden -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("decompositions differ from %s:\n%s", decomposeGoldenPath, lineDiff(string(want), got))
	}
}

// lineDiff names the first line where want and got part.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
