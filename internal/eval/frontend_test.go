package eval

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/machine"
	"muzzle/internal/registry"
	"muzzle/internal/sim"
)

// frontEndCircuits are the Table II programs plus a few random circuits.
func frontEndCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for _, s := range bench.Catalog() {
		cs = append(cs, s.Build())
	}
	for seed := int64(1); seed <= 3; seed++ {
		cs = append(cs, bench.Random(48, 300, seed))
	}
	return cs
}

// sameResult reports how got differs from want, ignoring wall time; "" means
// equal in every field (Ops, Order, InitialPlacement, counters, the native
// circuit and the policy names).
func sameResult(got, want *compiler.Result) string {
	g, w := *got, *want
	g.CompileTime, w.CompileTime = 0, 0
	if reflect.DeepEqual(g, w) {
		return ""
	}
	return fmt.Sprintf("%d ops, %d shuttles, %d reorders; want %d ops, %d shuttles, %d reorders",
		len(g.Ops), g.Shuttles, g.Reorders, len(w.Ops), w.Shuttles, w.Reorders)
}

// checkFrontEnd runs each circuit's shared front end through the lending
// compile, keeping a copy of what it lends, and requires it to equal the
// compiler's own compile of the circuit. RunCircuit's summary must equal the
// summary of that own compile followed by SimulateContext.
func checkFrontEnd(t *testing.T, opt Options, own func(*compiler.Compiler, *circuit.Circuit) (*compiler.Result, error)) {
	t.Helper()
	ctx := context.Background()
	for _, c := range frontEndCircuits() {
		var fe frontEnd
		if err := fe.prepare(c, opt); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		r, err := RunCircuit(ctx, c, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, name := range DefaultCompilers() {
			factory, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var got *compiler.Result
			err = factory().LendMappedContext(ctx, fe.native, opt.Config, fe.placement, fe.graph, func(res *compiler.Result) error {
				kept := *res
				kept.Ops = append([]machine.Op(nil), res.Ops...)
				got = &kept
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			want, err := own(factory(), c)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Errorf("%s/%s: the shared front end gave %s", c.Name, name, diff)
			}
			rep, err := sim.SimulateContext(ctx, opt.Config, want.InitialPlacement, want.Ops, opt.Sim)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			gotSum, wantSum := *EncodeResult(r).Outcomes[name], *encodeOutcome(name, want, rep)
			gotSum.CompileTimeNS, wantSum.CompileTimeNS = 0, 0
			if gotSum != wantSum {
				t.Errorf("%s/%s: RunCircuit summary %+v, want %+v", c.Name, name, gotSum, wantSum)
			}
		}
	}
}

// RunCircuit decomposes, places and builds the dependency graph of each
// circuit once for all compilers; its compiles must equal what each
// compiler's own CompileContext produces.
func TestRunCircuitMatchesCompileContext(t *testing.T) {
	opt := DefaultOptions()
	checkFrontEnd(t, opt, func(comp *compiler.Compiler, c *circuit.Circuit) (*compiler.Result, error) {
		return comp.CompileContext(context.Background(), c, opt.Config)
	})
}

// With a custom mapper, the shared placement must equal what
// CompileWithMapperContext computes for each compiler.
func TestRunCircuitMapperMatchesCompileWithMapper(t *testing.T) {
	opt := DefaultOptions()
	opt.Mapper = compiler.RoundRobinMapper{}
	checkFrontEnd(t, opt, func(comp *compiler.Compiler, c *circuit.Circuit) (*compiler.Result, error) {
		return comp.CompileWithMapperContext(context.Background(), c, opt.Config, opt.Mapper)
	})
}

// panicMapper is a deliberately broken placement policy.
type panicMapper struct{}

func (panicMapper) Name() string { return "panic-mapper" }
func (panicMapper) Place(*circuit.Circuit, machine.Config) ([][]int, error) {
	panic("mapper bug: no placement")
}

// The shared front end runs under the same containment as the compilers: a
// panicking Mapper fails its circuit, attributed to the first compiler,
// instead of crashing the harness.
func TestMapperPanicIsContained(t *testing.T) {
	opt := smallOptions()
	opt.Mapper = panicMapper{}
	c := bench.Random(12, 60, 3)
	_, err := RunCircuit(context.Background(), c, opt)
	want := fmt.Sprintf("eval %s: %s: compiler panicked: mapper bug", c.Name, registry.Baseline)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunCircuit error = %v, want it to contain %q", err, want)
	}
}
