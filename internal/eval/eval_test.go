package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// smallOptions shrinks the machine and suite so tests stay fast while
// exercising the full pipeline.
func smallOptions() Options {
	opt := DefaultOptions()
	opt.Random = bench.RandomSuiteParams{
		Sizes:     []int{12, 16},
		PerSize:   2,
		GatesMean: 60,
		GatesStd:  15,
		MinGates:  20,
		MaxGates:  120,
		Seed:      7,
	}
	opt.Config = machine.Config{Topology: topo.Linear(4), Capacity: 8, CommCapacity: 2}
	return opt
}

func TestRunCircuitProducesBothSides(t *testing.T) {
	opt := smallOptions()
	c := bench.Random(12, 60, 3)
	r, err := RunCircuit(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, optOut := r.Pair()
	if base == nil || optOut == nil || base.Result == nil || optOut.Result == nil || base.Sim == nil || optOut.Sim == nil {
		t.Fatal("missing result parts")
	}
	if r.Outcome("baseline") != base || r.Outcome("optimized") != optOut {
		t.Fatal("Pair does not match named outcomes")
	}
	if r.Gates2Q != 60 {
		t.Errorf("Gates2Q = %d, want 60", r.Gates2Q)
	}
	d, pct := r.Reduction()
	if d != base.Result.Shuttles-optOut.Result.Shuttles {
		t.Error("Reduction delta wrong")
	}
	wantPct := 100 * float64(d) / float64(base.Result.Shuttles)
	if math.Abs(pct-wantPct) > 1e-9 {
		t.Error("Reduction pct wrong")
	}
	if imp := r.Improvement(); imp <= 0 {
		t.Errorf("Improvement = %g", imp)
	}
}

func TestRunRandomParallelDeterministic(t *testing.T) {
	opt := smallOptions()
	opt.Parallelism = 4
	a, err := RunRandom(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 1
	b, err := RunRandom(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("suite sizes %d/%d, want 4", len(a), len(b))
	}
	for i := range a {
		ab, ao := a[i].Pair()
		bb, bo := b[i].Pair()
		if a[i].Name != b[i].Name ||
			ab.Result.Shuttles != bb.Result.Shuttles ||
			ao.Result.Shuttles != bo.Result.Shuttles {
			t.Fatalf("parallel run differs at %d: %s %d/%d vs %s %d/%d",
				i, a[i].Name, ab.Result.Shuttles, ao.Result.Shuttles,
				b[i].Name, bb.Result.Shuttles, bo.Result.Shuttles)
		}
	}
}

func TestRandomLimit(t *testing.T) {
	opt := smallOptions()
	opt.RandomLimit = 2
	rs, err := RunRandom(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("limit ignored: %d results", len(rs))
	}
}

func TestStats(t *testing.T) {
	s := NewStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %g", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("std = %g, want 2", s.Std)
	}
	empty := NewStats(nil)
	if empty.Mean != 0 || empty.Std != 0 || empty.N != 0 {
		t.Error("empty stats wrong")
	}
}

func TestTableFormatting(t *testing.T) {
	opt := smallOptions()
	opt.RandomLimit = 2
	random, err := RunRandom(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Use the same results as a stand-in NISQ list for format checking.
	t2 := TableII(random, random)
	for _, want := range []string{"TABLE II", "This Work", "%Δ", "Random(n=2)"} {
		if !strings.Contains(t2, want) {
			t.Errorf("TableII missing %q:\n%s", want, t2)
		}
	}
	f8 := Figure8(random, random)
	for _, want := range []string{"FIG. 8", "X |", "Random"} {
		if !strings.Contains(f8, want) {
			t.Errorf("Figure8 missing %q:\n%s", want, f8)
		}
	}
	t3 := TableIII(random, random)
	for _, want := range []string{"TABLE III", "This work (sec)", "[7] (sec)"} {
		if !strings.Contains(t3, want) {
			t.Errorf("TableIII missing %q:\n%s", want, t3)
		}
	}
	sum := Summary(random, nil)
	if !strings.Contains(sum, "max shuttle reduction") {
		t.Errorf("Summary = %q", sum)
	}
	if Summary(nil, nil) != "no results" {
		t.Error("empty summary wrong")
	}
}

// TestNISQShapeHolds is the headline integration test: on the full paper
// hardware model, the optimized compiler must beat the baseline on every
// NISQ benchmark, with reductions in the paper's 19-51%-ish band and
// fidelity improvements > 1 everywhere.
func TestNISQShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full NISQ evaluation in -short mode")
	}
	opt := DefaultOptions()
	results, err := RunNISQ(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		d, pct := r.Reduction()
		base, opt := r.Pair()
		if d <= 0 {
			t.Errorf("%s: optimized (%d) did not beat baseline (%d)", r.Name, opt.Result.Shuttles, base.Result.Shuttles)
		}
		if pct < 10 || pct > 70 {
			t.Errorf("%s: reduction %.1f%% outside plausible band", r.Name, pct)
		}
		if imp := r.Improvement(); imp <= 1 {
			t.Errorf("%s: fidelity improvement %.2fX, want > 1 (Fig. 8)", r.Name, imp)
		}
	}
	// QFT (all-to-all, low shuttle-to-gate ratio) must show the smallest
	// fidelity improvement, as the paper's Section IV-C analysis predicts.
	var qftImp, minOther float64
	minOther = math.Inf(1)
	for _, r := range results {
		if r.Name == "QFT64" || r.Name == "QFT" {
			qftImp = r.Improvement()
		} else if imp := r.Improvement(); imp < minOther {
			minOther = imp
		}
	}
	if qftImp > minOther {
		t.Errorf("QFT improvement %.2fX should be the smallest (others >= %.2fX)", qftImp, minOther)
	}
}

// TestRandomSubsetShapeHolds verifies the random-circuit claim on a subset:
// the optimized compiler wins on every circuit (the paper reports wins on
// all 120).
func TestRandomSubsetShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("random subset evaluation in -short mode")
	}
	opt := DefaultOptions()
	opt.RandomLimit = 10
	results, err := RunRandom(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if base, opt := r.Pair(); opt.Result.Shuttles >= base.Result.Shuttles {
			t.Errorf("%s: optimized %d >= baseline %d", r.Name, opt.Result.Shuttles, base.Result.Shuttles)
		}
	}
}
