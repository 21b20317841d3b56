package ckey

import (
	"testing"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
	"muzzle/internal/topo"
)

func sampleCircuit() *circuit.Circuit {
	c := circuit.New("sample", 4)
	c.Add1Q("h", 0)
	c.Add2Q("cx", 0, 1)
	c.Add2Q("cp", 1, 2, 0.25)
	c.Add2Q("cx", 2, 3)
	return c
}

func TestKeyStable(t *testing.T) {
	cfg := machine.PaperL6()
	names := []string{"baseline", "optimized"}
	params := sim.DefaultParams()

	k1 := Key(sampleCircuit(), cfg, names, params)
	k2 := Key(sampleCircuit(), cfg, names, params)
	if k1 != k2 {
		t.Fatalf("identical inputs hash differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not hex SHA-256", k1)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := sampleCircuit()
	cfg := machine.PaperL6()
	names := []string{"baseline", "optimized"}
	params := sim.DefaultParams()
	ref := Key(base, cfg, names, params)

	mutations := map[string]func() string{
		"circuit name": func() string {
			c := sampleCircuit()
			c.Name = "other"
			return Key(c, cfg, names, params)
		},
		"extra gate": func() string {
			c := sampleCircuit()
			c.Add2Q("cx", 0, 3)
			return Key(c, cfg, names, params)
		},
		"gate operand": func() string {
			c := sampleCircuit()
			c.Gates[1].Qubits[1] = 2
			return Key(c, cfg, names, params)
		},
		"gate angle": func() string {
			c := sampleCircuit()
			c.Gates[2].Params[0] = 0.5
			return Key(c, cfg, names, params)
		},
		"capacity": func() string {
			m := cfg
			m.Capacity = 15
			return Key(base, m, names, params)
		},
		"comm capacity": func() string {
			m := cfg
			m.CommCapacity = 3
			return Key(base, m, names, params)
		},
		"topology": func() string {
			m := cfg
			m.Topology = topo.Ring(6)
			return Key(base, m, names, params)
		},
		"compiler set": func() string {
			return Key(base, cfg, []string{"optimized"}, params)
		},
		"compiler order": func() string {
			return Key(base, cfg, []string{"optimized", "baseline"}, params)
		},
		"sim constant": func() string {
			p := params
			p.Time.Move = 7
			return Key(base, cfg, names, p)
		},
		"cooling toggle": func() string {
			p := params
			p.Cooling = sim.DefaultCooling()
			return Key(base, cfg, names, p)
		},
	}
	for what, mutate := range mutations {
		if got := mutate(); got == ref {
			t.Errorf("changing %s did not change the key", what)
		}
	}
	// Mutations must not have corrupted the reference inputs.
	if again := Key(base, cfg, names, params); again != ref {
		t.Fatalf("reference key drifted: %s vs %s", again, ref)
	}
}
