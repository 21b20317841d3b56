package trace

import (
	"bytes"
	"strings"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/compiler"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

func compiled(t *testing.T) *compiler.Result {
	t.Helper()
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 6, CommCapacity: 2}
	c := bench.Random(10, 40, 99)
	res, err := baseline.New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJSONRoundTrip(t *testing.T) {
	res := compiled(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	jt, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Circuit != res.Circ.Name || jt.Qubits != res.Circ.NumQubits {
		t.Errorf("header mismatch: %+v", jt)
	}
	if jt.Shuttles != res.Shuttles {
		t.Errorf("shuttles = %d, want %d", jt.Shuttles, res.Shuttles)
	}
	if len(jt.Ops) != len(res.Ops) {
		t.Errorf("ops = %d, want %d", len(jt.Ops), len(res.Ops))
	}
	moves := 0
	for _, op := range jt.Ops {
		if op.Kind == "move" {
			moves++
			if op.Dest == op.Trap {
				t.Error("move with dest == trap")
			}
		}
	}
	if moves != res.Shuttles {
		t.Errorf("JSON moves = %d, want %d", moves, res.Shuttles)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestRenderSnapshots(t *testing.T) {
	res := compiled(t)
	var buf bytes.Buffer
	if err := Render(&buf, res, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "initial:") {
		t.Error("missing initial snapshot")
	}
	if !strings.Contains(out, "final (") {
		t.Error("missing final snapshot")
	}
	if !strings.Contains(out, "EC=") {
		t.Error("missing excess-capacity annotations")
	}
}

func TestRenderMaxSnapshots(t *testing.T) {
	res := compiled(t)
	var buf bytes.Buffer
	if err := Render(&buf, res, RenderOptions{MaxSnapshots: 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "after ")
	if lines > 3 {
		t.Errorf("snapshots = %d, want <= 3", lines)
	}
}

func TestHistogram(t *testing.T) {
	res := compiled(t)
	h := Histogram(res)
	for _, want := range []string{"gate2q=", "move=", "split=", "merge="} {
		if !strings.Contains(h, want) {
			t.Errorf("histogram missing %q: %s", want, h)
		}
	}
}

func TestWriteSVG(t *testing.T) {
	res := compiled(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "T0", "shuttles", "rect"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Every shuttle draws two move rectangles (source and destination lane).
	moves := strings.Count(out, "#e53e3e")
	if moves != 2*res.Shuttles {
		t.Errorf("move rects = %d, want %d", moves, 2*res.Shuttles)
	}
}

func TestWriteSVGEmptySchedule(t *testing.T) {
	res := compiled(t)
	res.Ops = nil
	res.Shuttles = 0
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res, SVGOptions{Width: 400, RowHeight: 20}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("no SVG produced")
	}
}

func TestSVGEscape(t *testing.T) {
	if escape(`a<b>&"c"`) != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("escape = %q", escape(`a<b>&"c"`))
	}
}
