package machine_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
	"muzzle/internal/verify"
)

// TestOpLayout pins the trace element: 24 bytes and pointer-free, so a
// trace is one flat array the GC never scans and grows by plain memmove.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(machine.Op{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 24", got)
	}
	typ := reflect.TypeOf(machine.Op{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("Op.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether values of t contain a pointer the GC must
// scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

func TestGateNameRoundTrip(t *testing.T) {
	seen := map[machine.GateName]string{}
	for _, name := range []string{"r", "rz", "ms", "measure"} {
		if !circuit.IsNative(name) {
			t.Fatalf("%q is not native", name)
		}
		code := machine.LookupGateName(name)
		if code == machine.NameNone {
			t.Errorf("%q maps to NameNone", name)
		}
		if prev, dup := seen[code]; dup {
			t.Errorf("%q and %q share code %d", name, prev, code)
		}
		seen[code] = name
		if got := code.String(); got != name {
			t.Errorf("LookupGateName(%q).String() = %q", name, got)
		}
	}
	// barrier is native but records no op; everything else is not native.
	for _, name := range []string{"barrier", "cx", "h", "", "MS"} {
		if code := machine.LookupGateName(name); code != machine.NameNone {
			t.Errorf("LookupGateName(%q) = %d, want NameNone", name, code)
		}
	}
	if s := machine.NameNone.String(); s != "" {
		t.Errorf("NameNone.String() = %q, want empty", s)
	}
	if s := machine.GateName(200).String(); s != "" {
		t.Errorf("unknown code String() = %q, want empty", s)
	}
}

// TestNonNativeNameReported checks that an op recorded under a name outside
// the native set carries NameNone, which the verifier reports against its
// source gate, while the native name of the same schedule verifies clean.
func TestNonNativeNameReported(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(1), Capacity: 3, CommCapacity: 1}
	for _, tc := range []struct {
		name  string
		clean bool
	}{{"r", true}, {"h", false}} {
		c := circuit.New("one", 1)
		c.Add1Q(tc.name, 0)
		st, err := machine.NewState(cfg, [][]int{{0}})
		if err != nil {
			t.Fatal(err)
		}
		st.ApplyGate1Q(tc.name, 0, 0)
		if got := st.Ops()[0].Name.String(); tc.clean != (got == tc.name) {
			t.Errorf("%s: recorded name %q", tc.name, got)
		}
		vs := verify.Replay(c, cfg, [][]int{{0}}, st.Ops())
		if tc.clean {
			if len(vs) != 0 {
				t.Errorf("%s: %v", tc.name, vs)
			}
			continue
		}
		if len(vs) != 1 || vs[0].Kind != verify.KindOrder || !strings.Contains(vs[0].Detail, `source gate is "h"`) {
			t.Errorf("%s: violations %v, want one name mismatch", tc.name, vs)
		}
	}
}
