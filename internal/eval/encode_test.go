package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
)

// FuzzResultJSON feeds arbitrary bytes to ReadResultJSON, which must reject
// or accept them without panicking. An accepted summary must rebuild into
// a BenchResult that encodes back to the same JSON.
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte(`{"circuit":"c","qubits":4,"gates_2q":3,"compilers":["baseline","optimized"],` +
		`"outcomes":{"baseline":{"compiler":"baseline","shuttles":7,"compile_time_ns":42,"duration_us":1.5,` +
		`"log_fidelity":-0.25,"fidelity":0.78,"coolings":2},"optimized":{"compiler":"optimized","shuttles":3,` +
		`"direction_policy":"future-ops","measures":4}}}`))
	f.Add([]byte(`{"circuit":"c","qubits":2,"compilers":["optimized"],"outcomes":{"optimized":{"compiler":"optimized",` +
		`"shuttles":1}},"verified":true}`))
	f.Add([]byte(`{"circuit":"c","compilers":["baseline"],"outcomes":{"baseline":null}}`))
	f.Add([]byte(`{"circuit":"c","compilers":["a","a"],"outcomes":{"a":{},"b":{}}}`))
	f.Add([]byte(`{"compilers":[],"outcomes":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadResultJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(EncodeResult(j.BenchResult()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("summary re-encodes differently:\n got %s\nwant %s", got, want)
		}
	})
}

// RunCircuit keeps only the summary, built through the ResultJSON schema: a
// result encodes and rebuilds to itself, so a memory hit cannot be told
// apart from a disk hit, and no outcome holds a trace.
func TestRunCircuitResultIsItsSummary(t *testing.T) {
	circuits := []*circuit.Circuit{bench.Random(48, 300, 1)}
	for _, s := range bench.Catalog() {
		circuits = append(circuits, s.Build())
	}
	for _, verified := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Verify = verified
		for _, c := range circuits {
			r, err := RunCircuit(context.Background(), c, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if r.Verified != verified {
				t.Errorf("%s: Verified = %v, want %v", c.Name, r.Verified, verified)
			}
			if back := EncodeResult(r).BenchResult(); !reflect.DeepEqual(back, r) {
				t.Errorf("%s (verify %v): EncodeResult(r).BenchResult() differs from r", c.Name, verified)
			}
			for name, o := range r.Outcomes {
				if o.Result.Ops != nil || o.Result.Order != nil || o.Result.InitialPlacement != nil || o.Sim.GateFidelities != nil {
					t.Errorf("%s/%s: outcome keeps a trace", c.Name, name)
				}
			}
		}
	}
}
