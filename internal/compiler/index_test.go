package compiler

import (
	"math/rand"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// hoistAnyReorderer hoists the first dependency-safe pending 2Q gate it
// finds, regardless of trap effects — a deliberately aggressive policy that
// exercises index maintenance under many more hoists than Algorithm 1 would
// perform.
type hoistAnyReorderer struct{}

func (hoistAnyReorderer) Name() string { return "hoist-any" }
func (hoistAnyReorderer) Candidate(ctx *Context, order []int, cursor int, fullTrap int) int {
	for pos := cursor + 1; pos < len(order) && pos < cursor+40; pos++ {
		idx := order[pos]
		if ctx.Executed[idx] || !ctx.Circ.Gates[idx].Is2Q() {
			continue
		}
		if !ctx.Graph.CanHoist(idx, ctx.Executed) {
			continue
		}
		qa, qb := ctx.Circ.Gates[idx].Qubits[0], ctx.Circ.Gates[idx].Qubits[1]
		if ctx.State.CoLocated(qa, qb) {
			continue
		}
		return pos
	}
	return -1
}

// random2Q builds a 2Q-only random circuit. Without interleaved 1Q gates a
// pending gate's predecessors are other 2Q gates, so Algorithm-1 style
// hoists are actually dependency-safe and the reorder path fires — dense 1Q
// circuits almost never hoist (the nearest 1Q predecessor is pending too).
func random2Q(qubits, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rand2q", qubits)
	for i := 0; i < gates; i++ {
		a := rng.Intn(qubits)
		b := rng.Intn(qubits - 1)
		if b >= a {
			b++
		}
		c.Add2Q("ms", a, b)
	}
	return c
}

// TestIndexMaintenanceProperty compiles randomized congested circuits with
// verifyIndex enabled: after every execute and every hoist the engine
// cross-checks the incremental index against a from-scratch rebuild and
// panics on divergence. The coverage assertions keep the property
// non-vacuous: the suite must actually perform hoists and rebalances.
func TestIndexMaintenanceProperty(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 4, CommCapacity: 0}
	totalReorders, totalRebalances := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		nq := cfg.Topology.NumTraps()*cfg.Capacity - 2 // nearly saturated
		c := random2Q(nq, nq*8, seed)
		comp := &Compiler{
			Direction:   firstIonDirection{},
			Rebalancer:  lowestFitRebalancer{},
			Reorderer:   hoistAnyReorderer{},
			verifyIndex: true,
		}
		res, err := comp.CompileContext(t.Context(), c, cfg)
		if err != nil {
			// Saturated machines may legitimately fail to route; the
			// property under test is index consistency (a divergence
			// panics), not compilability.
			t.Logf("seed %d: compile error (acceptable): %v", seed, err)
			continue
		}
		totalReorders += res.Reorders
		totalRebalances += res.Rebalances
	}
	if totalReorders == 0 {
		t.Error("property suite performed no hoists; index maintenance under reordering is untested")
	}
	if totalRebalances == 0 {
		t.Error("property suite performed no rebalances; index maintenance under eviction is untested")
	}
}

// buildIndexedContext assembles a Context with a live index at the given
// cursor, marking every gate before cursor executed (the engine invariant).
func buildIndexedContext(t *testing.T, c *circuit.Circuit, order []int, cursor int) *Context {
	t.Helper()
	ctx := &Context{Graph: dag.Build(c), Circ: c, Executed: make([]bool, len(c.Gates))}
	for p := 0; p < cursor; p++ {
		ctx.Executed[order[p]] = true
	}
	ctx.idx = newFutureIndex(ctx, order)
	ctx.idx.cursor = cursor
	return ctx
}

// TestWindowMatchesRemaining2Q is the window-math property: for random
// circuits, cursors, lookahead limits, and exclusions, materializing a
// Window descriptor must reproduce the naive Remaining2Q scan exactly.
func TestWindowMatchesRemaining2Q(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nq := 3 + rng.Intn(8)
		c := bench.Random(nq, 5+rng.Intn(40), rng.Int63())
		n := len(c.Gates)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		cursor := rng.Intn(n)
		ctx := buildIndexedContext(t, c, order, cursor)
		limit := 1 + rng.Intn(12)
		// exclude: none, or a random pending-2Q position after the cursor.
		excludePos := -1
		excludeGate := -1
		if rng.Intn(2) == 0 {
			var cands []int
			for pos := cursor + 1; pos < n; pos++ {
				if c.Gates[order[pos]].Is2Q() {
					cands = append(cands, pos)
				}
			}
			if len(cands) > 0 {
				excludePos = cands[rng.Intn(len(cands))]
				excludeGate = order[excludePos]
			}
		}
		want := Remaining2Q(ctx, order, cursor, limit, excludePos)
		got := ctx.AppendWindow(nil, ctx.Window(limit, excludeGate))
		if !equalInts(want, got) {
			t.Fatalf("trial %d (cursor=%d limit=%d exclude=%d):\nnaive   %v\nwindowed %v",
				trial, cursor, limit, excludePos, want, got)
		}
	}
}

// TestFutureGatesInvariant pins the documented FutureGates contract: exactly
// the unexecuted 2Q gates using the qubit, in schedule order.
func TestFutureGatesInvariant(t *testing.T) {
	c := bench.Random(6, 30, 3)
	n := len(c.Gates)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for cursor := 0; cursor < n; cursor += 3 {
		ctx := buildIndexedContext(t, c, order, cursor)
		for q := 0; q < c.NumQubits; q++ {
			var want []int
			for _, gi := range order {
				g := c.Gates[gi]
				if !ctx.Executed[gi] && g.Is2Q() && g.Uses(q) {
					want = append(want, gi)
				}
			}
			if !equalInts(want, ctx.FutureGates(q)) {
				t.Fatalf("cursor %d qubit %d: FutureGates=%v want %v", cursor, q, ctx.FutureGates(q), want)
			}
			wantNext := -1
			if len(want) > 0 {
				wantNext = want[0]
			}
			if got := ctx.NextUnexecuted(q); got != wantNext {
				t.Fatalf("cursor %d qubit %d: NextUnexecuted=%d want %d", cursor, q, got, wantNext)
			}
		}
		// Spectator ions beyond the register are future-free, not a panic.
		if got := ctx.FutureGates(c.NumQubits + 5); got != nil {
			t.Fatalf("spectator ion has future gates: %v", got)
		}
	}
}

// FuzzWindow fuzzes the window descriptor against the naive scan with
// machine-generated gate sequences, cursors, limits, and exclusions.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(4), uint8(1))
	f.Add([]byte{9, 9, 9, 0, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, gates []byte, cursorB, limitB, exclB uint8) {
		const nq = 5
		c := circuit.New("fuzz", nq)
		for i := 0; i+1 < len(gates) && i < 120; i += 2 {
			a := int(gates[i]) % nq
			b := int(gates[i+1]) % nq
			if a == b {
				c.Add1Q("rz", a, 0.1)
				continue
			}
			c.Add2Q("ms", a, b)
		}
		n := len(c.Gates)
		if n == 0 {
			return
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		cursor := int(cursorB) % n
		limit := 1 + int(limitB)%16
		ctx := buildIndexedContext(t, c, order, cursor)
		excludePos := -1
		excludeGate := -1
		if n > cursor+1 && exclB%2 == 0 {
			p := cursor + 1 + int(exclB)%(n-cursor-1)
			if c.Gates[order[p]].Is2Q() {
				excludePos, excludeGate = p, order[p]
			}
		}
		want := Remaining2Q(ctx, order, cursor, limit, excludePos)
		got := ctx.AppendWindow(nil, ctx.Window(limit, excludeGate))
		if !equalInts(want, got) {
			t.Fatalf("cursor=%d limit=%d excludePos=%d: naive %v windowed %v",
				cursor, limit, excludePos, want, got)
		}
	})
}
