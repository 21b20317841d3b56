package muzzle

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/dag"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
	"muzzle/internal/verify"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates.
var raceEnabled bool

// allocCalls is how many measured calls allocsPerCall averages over.
const allocCalls = 10

// allocsPerCall returns the heap allocations of one call of f on warm
// state, or the error of its warm-up call. After the warm-up call it
// collects, then holds collection off and runs on one P while it counts
// allocCalls calls: a collection cycle in the window adds a few allocations
// of its own, which made whole evaluations read one higher in some
// processes than in others.
func allocsPerCall(f func() error) (uint64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range allocCalls {
		_ = f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / allocCalls, nil
}

// allocRow is one line of testdata/allocs.golden: a layer, named by its Go
// name, on one circuit.
type allocRow struct {
	layer, circuit string
	allocs         uint64
}

// measureAllocs measures every budgeted layer on the five Table II programs
// and the first two circuits of the paper's random suite, on the paper's L6
// machine.
func measureAllocs(t *testing.T) []allocRow {
	t.Helper()
	var circuits []*circuit.Circuit
	for _, s := range bench.Catalog() {
		circuits = append(circuits, s.Build())
	}
	circuits = append(circuits, bench.RandomSuite(bench.DefaultRandomSuiteParams())[:2]...)

	ctx := context.Background()
	cfg := machine.PaperL6()
	opt := eval.DefaultOptions()
	opt.Verify = true
	compilers := []struct {
		name string
		c    *compiler.Compiler
	}{{"baseline", baseline.New()}, {"optimized", core.New()}}
	noop := func(*compiler.Result) error { return nil }

	var rows []allocRow
	for _, c := range circuits {
		native, err := circuit.Decompose(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		g := dag.Build(native)
		placement, err := compiler.GreedyPlacement(native, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		owned, err := core.New().CompileMappedContext(ctx, native, cfg, placement)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}

		add := func(layer string, f func() error) {
			n, err := allocsPerCall(f)
			if err != nil {
				t.Fatalf("%s on %s: %v", layer, c.Name, err)
			}
			rows = append(rows, allocRow{layer, c.Name, n})
		}
		add("circuit.Decompose", func() error { _, err := circuit.Decompose(c); return err })
		add("dag.Build", func() error { dag.Build(native); return nil })
		add("compiler.GreedyPlacement", func() error { _, err := compiler.GreedyPlacement(native, cfg); return err })
		for _, comp := range compilers {
			add("(*compiler.Compiler).LendMappedContext/"+comp.name, func() error {
				return comp.c.LendMappedContext(ctx, native, cfg, placement, g, noop)
			})
		}
		add("verify.Result", func() error {
			if vs := verify.Result(owned); len(vs) > 0 {
				return &verify.Error{Circuit: c.Name, Violations: vs}
			}
			return nil
		})
		add("sim.SimulateContext", func() error {
			_, err := sim.SimulateContext(ctx, cfg, owned.InitialPlacement, owned.Ops, opt.Sim)
			return err
		})
		add("eval.RunCircuit", func() error { _, err := eval.RunCircuit(ctx, c, opt); return err })
	}
	return rows
}

// allocsHeader opens testdata/allocs.golden. A line naming the toolchain
// the table was measured with follows it.
const allocsHeader = `# Heap allocations per call of each layer of a compile and an evaluation,
# gated by TestAllocBudgets. Rewrite only with
#	go test . -run TestAllocBudgets -update
`

func formatAllocs(rows []allocRow) []byte {
	var b bytes.Buffer
	b.WriteString(allocsHeader)
	fmt.Fprintf(&b, "# toolchain %s\n", runtime.Version())
	for _, r := range rows {
		fmt.Fprintf(&b, "%-50s %-40s %d\n", r.layer, r.circuit, r.allocs)
	}
	return b.Bytes()
}

// parseAllocs reads a table written by formatAllocs, returning its
// toolchain and its budgets keyed by layer and circuit.
func parseAllocs(data []byte) (toolchain string, budgets map[[2]string]uint64, err error) {
	budgets = make(map[[2]string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# toolchain "); ok {
			toolchain = v
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return "", nil, fmt.Errorf("line %d: want layer, circuit and allocations, got %q", n, line)
		}
		v, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("line %d: %v", n, err)
		}
		budgets[[2]string{f[0], f[1]}] = v
	}
	return toolchain, budgets, sc.Err()
}

// TestAllocBudgets gates the heap allocations per call of every layer of a
// compile and an evaluation against testdata/allocs.golden. Allocation
// counts are exact for fixed inputs, so each row must match its budget: a
// rise is a regression in the named layer, and a fall means the table no
// longer states the cost and must be rewritten with
//
//	go test . -run TestAllocBudgets -update
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rows := measureAllocs(t)
	path := filepath.Join("testdata", "allocs.golden")
	if *update {
		if err := os.WriteFile(path, formatAllocs(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test . -run TestAllocBudgets -update to create it)", err)
	}
	toolchain, budgets, err := parseAllocs(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var note string
	if toolchain != runtime.Version() {
		note = fmt.Sprintf("; the table was measured with %s and this is %s, so if the toolchain explains the change, rewrite it with -update", toolchain, runtime.Version())
	}
	for _, r := range rows {
		key := [2]string{r.layer, r.circuit}
		want, ok := budgets[key]
		delete(budgets, key)
		switch {
		case !ok:
			t.Errorf("%s on %s: %d allocations per call and no budget; add it with -update", r.layer, r.circuit, r.allocs)
		case r.allocs > want:
			t.Errorf("%s on %s: rose to %d allocations per call, budget %d%s", r.layer, r.circuit, r.allocs, want, note)
		case r.allocs < want:
			t.Errorf("%s on %s: fell to %d allocations per call, budget %d; lower it with -update%s", r.layer, r.circuit, r.allocs, want, note)
		}
	}
	for key := range budgets {
		t.Errorf("%s on %s: budgeted but not measured; remove it with -update", key[0], key[1])
	}
}
