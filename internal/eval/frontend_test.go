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

// RunCircuit decomposes and places each circuit once for all compilers; its
// outcomes must equal what each compiler's own CompileContext produces.
func TestRunCircuitMatchesCompileContext(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	for _, c := range frontEndCircuits() {
		r, err := RunCircuit(ctx, c, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, name := range DefaultCompilers() {
			factory, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := factory().CompileContext(ctx, c, opt.Config)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if diff := sameResult(r.Outcome(name).Result, want); diff != "" {
				t.Errorf("%s/%s: RunCircuit gave %s", c.Name, name, diff)
			}
		}
	}
}

// With a custom mapper, the shared placement must equal what
// CompileWithMapperContext computes for each compiler.
func TestRunCircuitMapperMatchesCompileWithMapper(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Mapper = compiler.RoundRobinMapper{}
	for _, c := range frontEndCircuits() {
		r, err := RunCircuit(ctx, c, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, name := range DefaultCompilers() {
			factory, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := factory().CompileWithMapperContext(ctx, c, opt.Config, opt.Mapper)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if diff := sameResult(r.Outcome(name).Result, want); diff != "" {
				t.Errorf("%s/%s: RunCircuit gave %s", c.Name, name, diff)
			}
		}
	}
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
