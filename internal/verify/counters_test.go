package verify

import (
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
)

// TestCountersAgree is a differential oracle across compiler, verifier and
// simulator: over the five Table II programs and the first 8 random-suite
// circuits, each compile on the paper machine verifies clean, and the
// simulator's replay counts the same shuttles, swaps, splits, merges and
// 1Q and 2Q gates as the compiler's Result.
func TestCountersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite compile in -short mode")
	}
	var circs []*circuit.Circuit
	for _, spec := range bench.Catalog() {
		circs = append(circs, spec.Build())
	}
	circs = append(circs, bench.RandomSuite(bench.DefaultRandomSuiteParams())[:8]...)
	for _, c := range circs {
		for name, comp := range compilers() {
			res, err := comp.CompileContext(t.Context(), c, machine.PaperL6())
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if vs := Result(res); len(vs) != 0 {
				t.Errorf("%s/%s: %d violations: %v", c.Name, name, len(vs), vs[:min(len(vs), 5)])
			}
			rep, err := sim.SimulateContext(t.Context(), res.Config, res.InitialPlacement, res.Ops, sim.DefaultParams())
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			for _, cnt := range []struct {
				what          string
				compiled, sim int
			}{
				{"shuttles", res.Shuttles, rep.Shuttles},
				{"swaps", res.Swaps, rep.Swaps},
				{"splits", res.Splits, rep.Splits},
				{"merges", res.Merges, rep.Merges},
				{"1Q gates", res.Gates1Q, rep.Gates1Q},
				{"2Q gates", res.Gates2Q, rep.Gates2Q},
			} {
				if cnt.compiled != cnt.sim {
					t.Errorf("%s/%s: compiler counts %d %s, simulator %d", c.Name, name, cnt.compiled, cnt.what, cnt.sim)
				}
			}
		}
	}
}
