package coord_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle/internal/coord"
	"muzzle/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/sweep.golden from the current output")

// goldenGrid is the pinned sweep: four 4-trap topologies, one of them a
// custom star, under three circuits. The 40-qubit circuit needs 40 slots
// and each machine has 16, so its four cells record deterministic
// failures.
func goldenGrid() sweep.Grid {
	return sweep.Grid{
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyLine, Traps: 4},
			{Family: sweep.FamilyRing, Traps: 4},
			{Family: sweep.FamilyGrid, Rows: 2, Cols: 2},
			{Family: sweep.FamilyCustom, Name: "star4", Traps: 4, Edges: [][2]int{{0, 1}, {1, 2}, {1, 3}}},
		},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitQFT, Qubits: 8},
			{Kind: sweep.CircuitRandom, Qubits: 10, Gates2Q: 30, Seed: 11},
			{Kind: sweep.CircuitRandom, Qubits: 40, Gates2Q: 10, Seed: 1},
		},
	}
}

// sweepArtifacts returns a run directory's report.json and report.csv as
// one labelled text.
func sweepArtifacts(t *testing.T, dir string) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, name := range []string{"report.json", "report.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("== " + name + " ==\n")
		b.Write(data)
	}
	return b.Bytes()
}

// TestSweepArtifactsGolden pins report.json and report.csv of a fixed
// 12-cell grid byte for byte, run in this process and on a coordinator
// over two muzzled workers that share one cache directory. Rewrite the
// golden only with
//
//	go test ./internal/coord -run TestSweepArtifactsGolden -update
func TestSweepArtifactsGolden(t *testing.T) {
	exp, err := sweep.Expand(goldenGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Cells) != 12 {
		t.Fatalf("golden grid expands to %d cells, want 12", len(exp.Cells))
	}
	localDir := t.TempDir()
	rep, err := inProcessCoord(t, coord.Config{}).RunDir(t.Context(), goldenGrid(), localDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 4 {
		t.Fatalf("in-process run: %d failed cells, want the 4 oversized ones", n)
	}
	local := sweepArtifacts(t, localDir)

	shared := t.TempDir()
	srvA, _ := newRealWorker(t, "w-a", shared, nil)
	srvB, _ := newRealWorker(t, "w-b", shared, nil)
	c, err := coord.New(coord.Config{Workers: []string{srvA.URL, srvB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	distDir := t.TempDir()
	if _, err := c.RunDir(t.Context(), goldenGrid(), distDir); err != nil {
		t.Fatal(err)
	}
	dist := sweepArtifacts(t, distDir)

	path := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, local, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/coord -run TestSweepArtifactsGolden -update to create it)", err)
	}
	for _, run := range []struct {
		name string
		got  []byte
	}{{"in-process", local}, {"muzzled", dist}} {
		if bytes.Equal(run.got, want) {
			continue
		}
		gl, wl := strings.Split(string(run.got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s run: %s differs at line %d:\n got: %s\nwant: %s", run.name, path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s run: %s differs: got %d lines, want %d", run.name, path, len(gl), len(wl))
	}
}
