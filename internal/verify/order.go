package verify

import (
	"fmt"

	"muzzle/internal/circuit"
)

// Program order without a dependency graph. The graph joins consecutive
// gates on a shared qubit, barriers included, so both order checks keep
// per-qubit state instead:
//
//   - a recorded Order is a linearization exactly when it lists every gate
//     once and, on every qubit, the gates touching that qubit in increasing
//     index order (validOrder);
//   - a trace holds physical gates only, so it must run each one once, in
//     increasing index order on each of its qubits, and may cross a barrier
//     only once every qubit the barrier spans has run each physical gate
//     before it and crossed each earlier barrier (programOrder).

// validOrder reports whether order lists every gate of c once, with the
// gates touching each qubit in increasing index order. A barrier may name
// a qubit twice.
func validOrder(c *circuit.Circuit, order []int) error {
	n := len(c.Gates)
	if len(order) != n {
		return fmt.Errorf("order has %d entries, circuit has %d gates", len(order), n)
	}
	seen := make([]bool, n)
	last := make([]int, c.NumQubits) // gate last listed on each qubit
	for q := range last {
		last[q] = -1
	}
	for _, idx := range order {
		if idx < 0 || idx >= n {
			return fmt.Errorf("order entry %d out of range", idx)
		}
		if seen[idx] {
			return fmt.Errorf("gate %d appears twice in order", idx)
		}
		seen[idx] = true
		for _, q := range c.Gates[idx].Qubits {
			if idx < last[q] {
				return fmt.Errorf("gate %d listed after gate %d, which follows it on q[%d]", idx, last[q], q)
			}
			last[q] = idx
		}
	}
	return nil
}

// programOrder is the trace's order state: which physical gates ran, and
// where each qubit stands in program order.
type programOrder struct {
	circ   *circuit.Circuit
	ran    []bool // physical gates run so far
	qubits []qubitCursor
	// stops lists each barrier once per qubit it spans, in gate order; a
	// qubit's stops are linked through next from its cursor's stop.
	stops []barrierStop
}

// qubitCursor is one qubit's place in program order.
type qubitCursor struct {
	last  int // highest gate index run on the qubit, -1 before any
	count int // physical gates run on the qubit
	stop  int // index in stops of the next barrier to cross, -1 past the last
}

// barrierStop is one qubit's view of a barrier it must cross.
type barrierStop struct {
	gate   int // the barrier's gate index
	before int // physical gates on the qubit before the barrier
	next   int // the qubit's following stop, -1 if none
}

// newProgramOrder indexes c's barriers by qubit in one pass over its gates.
func newProgramOrder(c *circuit.Circuit) programOrder {
	o := programOrder{circ: c, ran: make([]bool, len(c.Gates)), qubits: make([]qubitCursor, c.NumQubits)}
	// While indexing, last holds the qubit's latest stop and count its
	// physical gates so far; both restart before the replay.
	for q := range o.qubits {
		o.qubits[q] = qubitCursor{last: -1, stop: -1}
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind() != circuit.KindBarrier {
			for _, q := range g.Qubits {
				o.qubits[q].count++
			}
			continue
		}
		for _, q := range g.Qubits {
			qc := &o.qubits[q]
			if qc.last >= 0 && o.stops[qc.last].gate == i {
				continue // the barrier names q twice
			}
			o.stops = append(o.stops, barrierStop{gate: i, before: qc.count, next: -1})
			k := len(o.stops) - 1
			if qc.last >= 0 {
				o.stops[qc.last].next = k
			} else {
				qc.stop = k
			}
			qc.last = k
		}
	}
	for q := range o.qubits {
		o.qubits[q].last, o.qubits[q].count = -1, 0
	}
	return o
}

// run records physical gate idx at op i, reporting each way it breaks
// program order through r.
func (o *programOrder) run(r *replayer, i, idx int, g *circuit.Gate) {
	if o.ran[idx] {
		r.report(i, KindOrder, "gate %d (%s) executed twice", idx, g.Name)
		return
	}
	o.ran[idx] = true
	for _, q := range g.Qubits {
		qc := &o.qubits[q]
		early := -1 // first barrier on q the gate crosses too early
		for qc.stop >= 0 && o.stops[qc.stop].gate < idx {
			if b := o.stops[qc.stop].gate; !o.cross(b) {
				if early < 0 {
					early = b
				}
				qc.stop = o.stops[qc.stop].next
			}
		}
		if early >= 0 {
			r.report(i, KindOrder, "gate %d (%s) crosses barrier %d on q[%d] before every qubit it spans has reached it",
				idx, g.Name, early, q)
		}
		if idx < qc.last {
			r.report(i, KindOrder, "gate %d (%s) executed after gate %d (%s), which follows it on q[%d]",
				idx, g.Name, qc.last, o.circ.Gates[qc.last].Name, q)
		} else {
			qc.last = idx
		}
		qc.count++
	}
}

// cross moves every qubit barrier b spans past it, crossing earlier
// barriers on the way, and reports whether it could: each of those qubits
// must have run every physical gate before b. A qubit already past b (it
// crossed early, which was reported) does not hold b up.
func (o *programOrder) cross(b int) bool {
	qubits := o.circ.Gates[b].Qubits
	for _, q := range qubits {
		qc := &o.qubits[q]
		for qc.stop >= 0 {
			s := o.stops[qc.stop]
			if s.gate > b {
				break
			}
			if s.gate == b {
				if qc.count < s.before {
					return false
				}
				break
			}
			if !o.cross(s.gate) {
				return false
			}
		}
	}
	for _, q := range qubits {
		if qc := &o.qubits[q]; qc.stop >= 0 && o.stops[qc.stop].gate == b {
			qc.stop = o.stops[qc.stop].next
		}
	}
	return true
}
