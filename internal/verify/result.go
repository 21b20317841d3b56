package verify

import (
	"fmt"

	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
)

// Result verifies a full compilation result: the op-stream replay of
// Replay plus the Result-level consistency checks — the summary counters
// must agree with the trace, and the recorded gate Order must be a valid
// DAG linearization whose physical subsequence matches the executed trace.
// An empty slice means the schedule is provably legal.
//
// Summary-only results (reloaded from the compile cache's disk tier, which
// drops the operation trace) cannot be replayed; they yield a single
// KindMetadata violation saying so.
func Result(res *compiler.Result) []Violation {
	if res == nil {
		return []Violation{{Op: -1, Kind: KindMetadata, Detail: "nil compile result"}}
	}
	if res.Circ == nil {
		return []Violation{{Op: -1, Kind: KindMetadata, Detail: "result carries no circuit"}}
	}
	if res.InitialPlacement == nil {
		return []Violation{{Op: -1, Kind: KindMetadata,
			Detail: "result carries no operation trace (summary-only, e.g. reloaded from the disk cache); recompile to verify"}}
	}
	g := dag.Build(res.Circ)
	vs := replay(res.Circ, res.Config, res.InitialPlacement, res.Ops, g)
	vs = append(vs, checkCounters(res)...)
	vs = append(vs, checkOrder(res, g)...)
	return vs
}

// checkCounters cross-checks the result's summary counters against its own
// op stream.
func checkCounters(res *compiler.Result) []Violation {
	var counts [8]int
	for _, op := range res.Ops {
		if k := int(op.Kind); k >= 0 && k < len(counts) {
			counts[k]++
		}
	}
	var vs []Violation
	check := func(name string, have int, kind machine.OpKind) {
		if want := counts[kind]; have != want {
			vs = append(vs, Violation{Op: -1, Kind: KindMetadata,
				Detail: fmt.Sprintf("result reports %d %s, trace holds %d", have, name, want)})
		}
	}
	check("shuttles", res.Shuttles, machine.OpMove)
	check("swaps", res.Swaps, machine.OpSwap)
	check("splits", res.Splits, machine.OpSplit)
	check("merges", res.Merges, machine.OpMerge)
	check("2Q gates", res.Gates2Q, machine.OpGate2Q)
	check("1Q gates", res.Gates1Q, machine.OpGate1Q)
	return vs
}

// checkOrder validates the recorded gate Order against g, the dependency
// graph of res.Circ: a permutation respecting every dependency edge whose
// physical subsequence equals the trace's executed gate sequence.
func checkOrder(res *compiler.Result, g *dag.Graph) []Violation {
	if res.Order == nil {
		return []Violation{{Op: -1, Kind: KindMetadata, Detail: "result carries no gate order"}}
	}
	if err := g.ValidOrder(res.Order); err != nil {
		return []Violation{{Op: -1, Kind: KindMetadata, Detail: fmt.Sprintf("recorded order invalid: %v", err)}}
	}
	// The trace's gate ops, in stream order, must equal Order restricted to
	// physical (non-barrier) gates.
	var vs []Violation
	pos := 0
	next := func() (int, bool) {
		for pos < len(res.Order) {
			idx := res.Order[pos]
			pos++
			if res.Circ.Gates[idx].Kind() != circuit.KindBarrier {
				return idx, true
			}
		}
		return -1, false
	}
	for i, op := range res.Ops {
		switch op.Kind {
		case machine.OpGate1Q, machine.OpGate2Q, machine.OpMeasure:
		default:
			continue
		}
		want, ok := next()
		if !ok {
			vs = append(vs, Violation{Op: i, Kind: KindMetadata,
				Detail: "trace executes more gates than the recorded order lists"})
			return vs
		}
		if int(op.Gate) != want {
			vs = append(vs, Violation{Op: i, Kind: KindMetadata,
				Detail: fmt.Sprintf("trace executes gate %d where the recorded order lists gate %d", op.Gate, want)})
			return vs
		}
	}
	if _, ok := next(); ok {
		vs = append(vs, Violation{Op: -1, Kind: KindMetadata,
			Detail: "recorded order lists more physical gates than the trace executes"})
	}
	return vs
}
