package verify

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/core"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// TestOrderMutations swaps two gates that share a qubit in a legal
// compile's recorded Order and, separately, in its trace: the first must
// draw a metadata violation from the linearization check, the second an
// order violation from the replay.
func TestOrderMutations(t *testing.T) {
	res, err := core.New().CompileContext(t.Context(), bench.QFT(8), machine.PaperL6())
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, Result(res))
	shares := func(a, b int) bool {
		return slices.ContainsFunc(res.Circ.Gates[a].Qubits, res.Circ.Gates[b].Uses)
	}

	t.Run("order", func(t *testing.T) {
		p := 0
		for p+1 < len(res.Order) && !shares(res.Order[p], res.Order[p+1]) {
			p++
		}
		if p+1 == len(res.Order) {
			t.Fatal("no adjacent Order entries share a qubit")
		}
		bad := *res
		bad.Order = slices.Clone(res.Order)
		bad.Order[p], bad.Order[p+1] = bad.Order[p+1], bad.Order[p]
		vs := Result(&bad)
		if !slices.ContainsFunc(vs, func(v Violation) bool {
			return v.Kind == KindMetadata && strings.HasPrefix(v.Detail, "recorded order invalid")
		}) {
			t.Fatalf("Order with gates %d and %d swapped: %v, want an invalid-order metadata violation",
				res.Order[p], res.Order[p+1], vs)
		}
	})
	t.Run("trace", func(t *testing.T) {
		isGate := func(op machine.Op) bool { return op.Gate >= 0 }
		i := 0
		for i+1 < len(res.Ops) && !(isGate(res.Ops[i]) && isGate(res.Ops[i+1]) &&
			shares(int(res.Ops[i].Gate), int(res.Ops[i+1].Gate))) {
			i++
		}
		if i+1 == len(res.Ops) {
			t.Fatal("no adjacent gate ops share a qubit")
		}
		ops := slices.Clone(res.Ops)
		ops[i], ops[i+1] = ops[i+1], ops[i]
		wantKind(t, Replay(res.Circ, res.Config, res.InitialPlacement, ops), KindOrder)
	})
}

// TestReplayBarrierChain: r q0; barrier q0,q0,q1; barrier q1,q2; r q2.
// Through the barrier chain (q1 runs no gate), gate 3 must wait for gate 0,
// and a barrier naming q0 twice is no violation.
func TestReplayBarrierChain(t *testing.T) {
	c := circuit.New("chain", 3)
	c.Add1Q("r", 0, 0.1)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 0, 1}})
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{1, 2}})
	c.Add1Q("r", 2, 0.2)
	cfg := l3(4, 1)
	placement := [][]int{{0, 1, 2}, {}, {}}

	wantClean(t, Replay(c, cfg, placement, []machine.Op{gate1q("r", 0, 0, 0), gate1q("r", 2, 0, 3)}))
	wantKind(t, Replay(c, cfg, placement, []machine.Op{gate1q("r", 2, 0, 3), gate1q("r", 0, 0, 0)}), KindOrder)

	if err := validOrder(c, []int{0, 1, 2, 3}); err != nil {
		t.Errorf("program order rejected: %v", err)
	}
	for _, order := range [][]int{{0, 2, 1, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}, {-1, 1, 2, 3}} {
		if validOrder(c, order) == nil {
			t.Errorf("order %v accepted", order)
		}
	}
}

// TestVerifyImportsNoDag pins the verifier's independence from the
// compiler's dependency graph: no file of the package imports dag.
func TestVerifyImportsNoDag(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "muzzle/internal/dag" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates.
var raceEnabled bool

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResultBytes bounds what verifying a suite-mean circuit allocates:
// per-qubit and per-gate state, no dependency graph.
func TestResultBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs, budget = 10, 78_000
	c := bench.Random(70, 1438, 1)
	for name, comp := range compilers() {
		res, err := comp.CompileContext(t.Context(), c, machine.PaperL6())
		if err != nil {
			t.Fatal(err)
		}
		wantClean(t, Result(res))
		if b := allocatedBytes(func() {
			for range runs {
				Result(res)
			}
		}) / runs; b > budget {
			t.Errorf("%s: verify.Result allocates %d B per call, budget %d", name, b, budget)
		}
	}
}

// FuzzOrderOracle checks both order checks against the dependency graph
// they replaced, over fuzzer-chosen small circuits with barriers (repeated
// barrier operands included) and fuzzer-chosen permutations of their gates:
// validOrder must accept an order exactly when dag.Graph.ValidOrder does,
// and a single-trap trace of the permutation's physical gates must draw an
// order violation exactly when graphOrderBroken, the replay's former check
// over the graph, finds one.
//
//	go test -run=^$ -fuzz=FuzzOrderOracle -fuzztime=10s ./internal/verify
func FuzzOrderOracle(f *testing.F) {
	f.Add(uint8(3), []byte{0, 6, 0x3f, 9, 1}, []byte{0, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{0, 0x47, 5, 0x0b, 4}, []byte{3, 1, 2, 0})
	f.Add(uint8(4), []byte{0x33, 2, 0x67, 0xff, 7, 0x1b, 3}, []byte{5, 4, 3, 2, 1, 0})
	// Eight barriers crossed early by three of the trace's four gates.
	f.Add(uint8('C'), []byte("0\xff\x7f\xff\xff\x7f\xff\xff7,Z0"), []byte("07"))
	f.Fuzz(func(t *testing.T, qubits uint8, prog, shuffle []byte) {
		c := oracleCircuit(qubits, prog)
		n := len(c.Gates)
		g := dag.Build(c)

		// Arbitrary orders, short, long, duplicated or out of range.
		raw := make([]int, 0, len(shuffle))
		for _, b := range shuffle {
			raw = append(raw, int(int8(b))%(n+2))
		}
		if got, want := validOrder(c, raw) == nil, g.ValidOrder(raw) == nil; got != want {
			t.Fatalf("%v: order %v valid = %v, graph says %v", c.Gates, raw, got, want)
		}

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, k := n-1, 0; i > 0 && k < len(shuffle); i, k = i-1, k+1 {
			j := int(shuffle[k]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if got, want := validOrder(c, order) == nil, g.ValidOrder(order) == nil; got != want {
			t.Fatalf("%v: order %v valid = %v, graph says %v", c.Gates, order, got, want)
		}

		var trace []int
		var ops []machine.Op
		for _, idx := range order {
			switch gate := c.Gates[idx]; gate.Kind() {
			case circuit.Kind1Q:
				trace = append(trace, idx)
				ops = append(ops, gate1q(gate.Name, gate.Qubits[0], 0, idx))
			case circuit.Kind2Q:
				trace = append(trace, idx)
				ops = append(ops, gate2q(gate.Qubits[0], gate.Qubits[1], 0, idx))
			}
		}
		cfg := machine.Config{Topology: topo.Linear(1), Capacity: c.NumQubits + 1, CommCapacity: 1}
		placement := [][]int{make([]int, c.NumQubits)}
		for q := range placement[0] {
			placement[0][q] = q
		}
		vs := Replay(c, cfg, placement, ops)
		for _, v := range vs {
			if v.Kind != KindOrder && !strings.HasPrefix(v.Detail, "report truncated") {
				t.Fatalf("%v: trace %v drew %v", c.Gates, trace, v)
			}
		}
		if got, want := len(vs) > 0, graphOrderBroken(c, g, trace); got != want {
			t.Fatalf("%v: trace %v breaks order = %v (%v), graph says %v", c.Gates, trace, got, vs, want)
		}
	})
}

// oracleCircuit decodes prog into a circuit of at most 12 gates over 1-4
// qubits: r and ms gates, and barriers over a qubit mask that may name a
// qubit twice.
func oracleCircuit(qubits uint8, prog []byte) *circuit.Circuit {
	nq := 1 + int(qubits)%4
	c := circuit.New("oracle", nq)
	for _, b := range prog {
		if len(c.Gates) == 12 {
			break
		}
		a := int(b>>2) % nq
		switch {
		case b%4 == 2 && nq > 1:
			c.Add2Q("ms", a, (a+1+int(b>>4)%(nq-1))%nq, 0.5)
		case b%4 == 3:
			var qs []int
			for q := range nq {
				if b>>2&(1<<q) != 0 {
					qs = append(qs, q)
				}
			}
			if len(qs) == 0 {
				qs = append(qs, a)
			}
			if b&0x80 != 0 {
				qs = append(qs, qs[0])
			}
			c.MustAppend(circuit.Gate{Name: "barrier", Qubits: qs})
		default:
			c.Add1Q("r", a, 0.1)
		}
	}
	return c
}

// graphOrderBroken is the replay's order check as it stood over the
// dependency graph: a physical gate runs once, after each of its
// predecessors is satisfied, where a barrier is satisfied once its own
// predecessors are; every physical gate must run.
func graphOrderBroken(c *circuit.Circuit, g *dag.Graph, trace []int) bool {
	executed := make([]bool, len(c.Gates))
	barrierOK := make([]bool, len(c.Gates))
	var satisfied func(p int) bool
	satisfied = func(p int) bool {
		if c.Gates[p].Kind() != circuit.KindBarrier {
			return executed[p]
		}
		if barrierOK[p] {
			return true
		}
		for _, q := range g.Preds(p) {
			if !satisfied(q) {
				return false
			}
		}
		barrierOK[p] = true
		return true
	}
	broken := false
	for _, gate := range trace {
		if executed[gate] {
			broken = true
			continue
		}
		for _, p := range g.Preds(gate) {
			if !satisfied(p) {
				broken = true
			}
		}
		executed[gate] = true
	}
	for i, done := range executed {
		if !done && c.Gates[i].Kind() != circuit.KindBarrier {
			broken = true
		}
	}
	return broken
}
