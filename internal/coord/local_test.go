package coord_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/sweep"
)

// tinyGrid is a 2-cell grid cheap enough to compile twice in one test.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Topologies:     []sweep.TopologySpec{{Family: sweep.FamilyLine, Traps: 4}},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitRandom, Qubits: 8, Gates2Q: 20, Seed: 3},
			{Kind: sweep.CircuitQFT, Qubits: 6},
		},
	}
}

// inProcessCoord returns a coordinator that runs cells in this process.
func inProcessCoord(t *testing.T, cfg coord.Config) *coord.Coordinator {
	t.Helper()
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// New with no workers runs the grid in this process.
func TestNewWithoutWorkersRunsInProcess(t *testing.T) {
	c, err := coord.New(coord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Cells {
		if cr.Error != "" || len(cr.Outcomes) != 2 {
			t.Errorf("cell %s: error=%q outcomes=%d", cr.ID, cr.Error, len(cr.Outcomes))
		}
	}
	met := c.MetricsSnapshot()
	if len(met.Workers) != 1 || met.Workers[0].URL != "in-process" || !met.Workers[0].Healthy {
		t.Fatalf("workers = %+v, want one healthy in-process worker", met.Workers)
	}
	if met.Completed != int64(len(rep.Cells)) || met.Failed != 0 {
		t.Fatalf("metrics completed=%d failed=%d, want %d/0", met.Completed, met.Failed, len(rep.Cells))
	}
}

// TestRunDeterminism is the sweep determinism property: the same grid
// (including seeded random circuits) run twice produces byte-identical
// JSON and CSV artifacts.
func TestRunDeterminism(t *testing.T) {
	r1, err := inProcessCoord(t, coord.Config{PerWorkerInFlight: 4}).Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inProcessCoord(t, coord.Config{PerWorkerInFlight: 1}).Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := sweep.WriteJSON(&j1, r1); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteJSON(&j2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("JSON artifacts differ:\n%s\nvs\n%s", j1.String(), j2.String())
	}
	if err := sweep.WriteCSV(&c1, r1); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteCSV(&c2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Errorf("CSV artifacts differ")
	}
	for _, c := range r1.Cells {
		if c.Error != "" {
			t.Errorf("cell %s failed: %s", c.ID, c.Error)
		}
		if len(c.Outcomes) != 2 {
			t.Errorf("cell %s has %d outcomes, want 2", c.ID, len(c.Outcomes))
		}
	}
}

// TestCacheOverlapHits asserts that overlapping cells are free: a second
// run of the same grid against the same shared cache serves every cell
// from the cache.
func TestCacheOverlapHits(t *testing.T) {
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := inProcessCoord(t, coord.Config{Cache: cache})
	r1, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Misses != uint64(len(r1.Cells)) {
		t.Fatalf("first run: %d misses, want %d", s.Misses, len(r1.Cells))
	}
	hitsBefore := s.Hits
	r2, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if got, want := s.Hits-hitsBefore, uint64(len(r2.Cells)); got != want {
		t.Errorf("second run: %d cache hits, want %d (every overlapping cell free)", got, want)
	}
	if s.Misses != uint64(len(r1.Cells)) {
		t.Errorf("second run recompiled: misses grew to %d", s.Misses)
	}
	var j1, j2 bytes.Buffer
	if err := sweep.WriteJSON(&j1, r1); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteJSON(&j2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("cached run produced a different artifact")
	}
}

func TestRunDirResume(t *testing.T) {
	dir := t.TempDir()
	executed := 0
	c := inProcessCoord(t, coord.Config{OnCell: func(sweep.CellReport) { executed++ }})
	r1, err := c.RunDir(t.Context(), unitGrid(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(r1.Cells) {
		t.Fatalf("first run executed %d cells, want %d", executed, len(r1.Cells))
	}
	first, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}

	// A full directory resumes without executing anything.
	executed = 0
	if _, err := c.RunDir(t.Context(), unitGrid(), dir); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume executed %d cells, want 0", executed)
	}

	// Deleting one cell artifact re-runs exactly that cell, and the
	// reassembled report is byte-identical.
	if err := os.Remove(filepath.Join(dir, "cells", "cell-000003.json")); err != nil {
		t.Fatal(err)
	}
	executed = 0
	if _, err := c.RunDir(t.Context(), unitGrid(), dir); err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Errorf("partial resume executed %d cells, want 1", executed)
	}
	again, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("resumed report differs from original")
	}

	// A different grid must be rejected, not silently mixed in.
	other := unitGrid()
	other.Circuits = other.Circuits[:1]
	if _, err := c.RunDir(t.Context(), other, dir); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("mismatched grid error = %v", err)
	}
}

// A circuit too large for a machine point is a per-cell failure, recorded
// in the report — never a crash, and the rest of the sweep completes.
func TestInfeasibleCellRecorded(t *testing.T) {
	g := sweep.Grid{
		Topologies:     []sweep.TopologySpec{{Family: sweep.FamilyLine, Traps: 2}},
		Capacities:     []int{3},
		CommCapacities: []int{1},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitRandom, Qubits: 40, Gates2Q: 10, Seed: 1}, // 40 ions into 2x(3-1) slots
			{Kind: sweep.CircuitRandom, Qubits: 3, Gates2Q: 4, Seed: 2},
		},
	}
	rep, err := inProcessCoord(t, coord.Config{}).Run(t.Context(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures() != 1 {
		t.Fatalf("failures = %d, want 1 (report: %+v)", rep.Failures(), rep.Cells)
	}
	if rep.Cells[0].Error == "" {
		t.Errorf("infeasible cell has no error")
	}
	if rep.Cells[1].Error != "" || len(rep.Cells[1].Outcomes) == 0 {
		t.Errorf("feasible cell should still complete: %+v", rep.Cells[1])
	}
}

// Cells that failed only because the run was canceled are transient and
// must not be persisted as done: a resumed run re-executes them and the
// final report carries no trace of the interruption.
func TestRunDirCanceledCellsResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := inProcessCoord(t, coord.Config{}).RunDir(ctx, unitGrid(), dir); err == nil {
		t.Fatal("expected context error from canceled run")
	}
	executed := 0
	c := inProcessCoord(t, coord.Config{OnCell: func(sweep.CellReport) { executed++ }})
	rep, err := c.RunDir(t.Context(), unitGrid(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(rep.Cells) {
		t.Errorf("resume after cancel executed %d cells, want all %d", executed, len(rep.Cells))
	}
	if rep.Failures() != 0 {
		t.Errorf("resumed report still carries %d canceled cells", rep.Failures())
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	rep, err := inProcessCoord(t, coord.Config{}).Run(ctx, unitGrid())
	if err == nil {
		t.Fatal("expected context error")
	}
	if rep == nil {
		t.Fatal("canceled run should still return the partial report")
	}
	for _, c := range rep.Cells {
		if c.Error == "" && len(c.Outcomes) == 0 {
			t.Errorf("cell %s neither completed nor marked canceled", c.ID)
		}
	}
}

// End to end: a run whose artifact was torn on disk resumes by re-running
// exactly the damaged cell and reproduces report.json byte for byte.
func TestRunDirRerunsCorruptCell(t *testing.T) {
	dir := t.TempDir()
	rep1, err := inProcessCoord(t, coord.Config{}).RunDir(t.Context(), tinyGrid(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Failures() != 0 {
		t.Fatalf("first run had %d failures", rep1.Failures())
	}
	json1, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Tear cell 0 mid-write (as a crash would) and resume.
	if err := os.WriteFile(filepath.Join(dir, "cells", "cell-000000.json"), []byte(`{"index": 0, "id": "`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := inProcessCoord(t, coord.Config{}).RunDir(t.Context(), tinyGrid(), dir)
	if err != nil {
		t.Fatalf("resume over torn cell: %v", err)
	}
	if rep2.Failures() != 0 {
		t.Fatalf("resumed run had %d failures", rep2.Failures())
	}
	json2, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(json1) != string(json2) {
		t.Fatal("report.json differs after re-running a torn cell")
	}
}
