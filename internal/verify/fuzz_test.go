package verify

import (
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// FuzzVerify is the paper-suite-independent correctness backstop: it
// compiles fuzzer-chosen random circuits on fuzzer-chosen topologies with
// both compilers and asserts the verifier finds zero violations. Any
// violation here is an engine bug (or a verifier bug) — either way a real
// finding.
func FuzzVerify(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(0), uint8(6), uint8(1))
	f.Add(int64(7), uint8(20), uint8(60), uint8(1), uint8(4), uint8(2))
	f.Add(int64(42), uint8(9), uint8(25), uint8(2), uint8(5), uint8(1))
	f.Add(int64(99), uint8(16), uint8(80), uint8(3), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, qubits, gates2q, topoSel, capacity, comm uint8) {
		tp := fuzzTopology(topoSel)
		cfg := machine.Config{
			Topology:     tp,
			Capacity:     2 + int(capacity)%16,
			CommCapacity: int(comm) % 3,
		}
		if cfg.CommCapacity >= cfg.Capacity {
			cfg.CommCapacity = cfg.Capacity - 1
		}
		maxIons := tp.NumTraps() * cfg.MaxInitialLoad()
		nq := 2 + int(qubits)%63
		if nq > maxIons {
			nq = maxIons
		}
		if nq < 2 {
			return // machine cannot hold a 2Q circuit
		}
		ng := 1 + int(gates2q)%96
		circ := bench.Random(nq, ng, seed)

		for name, comp := range map[string]*compiler.Compiler{
			"baseline": baseline.New(), "optimized": core.New(),
		} {
			res, err := comp.CompileContext(t.Context(), circ, cfg)
			if err != nil {
				// Some fuzzed machines are legitimately too tight to route
				// (saturated corridors); a structured compile error is the
				// correct outcome, not a finding.
				continue
			}
			if vs := Result(res); len(vs) != 0 {
				t.Fatalf("%s on %s (cap=%d comm=%d, %dq/%dg seed=%d): %d violations, first: %v",
					name, tp.Name(), cfg.Capacity, cfg.CommCapacity, nq, ng, seed, len(vs), vs[0])
			}
		}
	})
}

// fuzzTopology maps a selector byte onto the four topology families.
func fuzzTopology(sel uint8) *topo.Topology {
	switch sel % 4 {
	case 0:
		return topo.Linear(2 + int(sel/4)%7)
	case 1:
		return topo.Ring(3 + int(sel/4)%6)
	case 2:
		return topo.Grid(2, 2+int(sel/4)%4)
	default:
		// A fixed custom graph: a star with an extra rim edge.
		t, err := topo.New("fuzz-custom", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
		if err != nil {
			panic(err)
		}
		return t
	}
}
