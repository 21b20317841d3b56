// Package verify is the independent schedule verifier: it replays a
// compiled operation stream against the machine model from scratch —
// tracking ion positions, chain order, trap occupancy, and the
// split/move/merge shuttle protocol per op — and reports every physical or
// logical invariant the schedule breaks as a structured Violation.
//
// The verifier shares no state machinery with the compiler engine or the
// simulator: it maintains its own placement bookkeeping, so a bug common to
// both compilers (which the equivalence tests cannot see) still surfaces
// here. The checks are the paper's validity conditions:
//
//  1. every MOVE traverses a real topology edge into a trap with excess
//     capacity (a free slot to receive the shuttled ion);
//  2. no trap ever holds more ions than its total capacity, and the
//     initial placement respects the communication-capacity reservation;
//  3. every 1Q gate and measurement executes with its ion present in the
//     recorded trap, and every 2Q gate with both operands co-located there;
//  4. the executed gate sequence respects the source circuit's program
//     order, each physical gate executes exactly once, and each trace op
//     matches its source gate (name and operands — which pins measurement
//     Cbit wiring, since the op's Gate index addresses the source gate
//     carrying the classical target);
//  5. ions are conserved: none duplicated, lost, or left in transit.
//
// The verifier builds no dependency graph and reads none of the
// compiler's (internal/dag), so a bug there cannot pass both. Program
// order is the relation that graph encodes: it joins consecutive gates on a
// shared qubit, barriers included, so an order of the gates is valid
// exactly when, on every qubit, the gates touching it appear in increasing
// index order. A barrier, which the trace does not record, is crossed once
// every qubit it spans has reached it. Both order checks keep per-qubit
// cursors (order.go), and each ion's chain position is kept beside its
// chain, so no op scans a chain.
//
// Violations carry the op index, a stable Kind, and a human-readable
// detail; an empty slice means the schedule is provably legal under the
// machine model. The verifier never panics on malformed input — arbitrary
// op streams (fuzzed, truncated, hand-built) produce violations, not
// crashes.
package verify

import (
	"fmt"
	"strings"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
)

// Kind is a stable violation category.
type Kind string

// Violation kinds.
const (
	// KindPlacement marks an invalid initial placement (non-dense ion ids,
	// duplicates, loads beyond the communication-capacity reservation).
	KindPlacement Kind = "placement"
	// KindEdge marks a MOVE between traps that share no topology edge.
	KindEdge Kind = "edge"
	// KindCapacity marks a trap filled beyond its total capacity (a MOVE
	// into a full trap, or an over-full chain after any op).
	KindCapacity Kind = "capacity"
	// KindPresence marks an op whose ion is not where the op claims
	// (wrong trap, unknown ion, or an ion currently in transit).
	KindPresence Kind = "presence"
	// KindCoLocation marks a 2Q gate whose operands sit in different traps.
	KindCoLocation Kind = "colocation"
	// KindProtocol marks a broken shuttle protocol: a SPLIT of a mid-chain
	// ion, a MOVE without a preceding SPLIT (or from the wrong chain end),
	// a MERGE without a MOVE, or a SWAP of non-adjacent ions.
	KindProtocol Kind = "protocol"
	// KindOrder marks a gate-order violation: a gate executed out of
	// program order on one of its qubits or across a barrier, executed
	// twice, never executed, or an op that does not match its source gate
	// (name, operands, or kind) — the latter also breaks measurement Cbit
	// wiring, since the classical target lives on the source gate the op's
	// Gate index addresses.
	KindOrder Kind = "order"
	// KindConservation marks an ion lost, duplicated, or left in transit at
	// the end of the stream.
	KindConservation Kind = "conservation"
	// KindMetadata marks a Result whose summary counters or Order disagree
	// with its own op stream (Result-level checks only; Replay never
	// reports it).
	KindMetadata Kind = "metadata"
)

// Violation is one broken invariant of a schedule.
type Violation struct {
	// Op is the index into the op stream where the violation was detected;
	// -1 for stream-global violations (initial placement, end-of-stream
	// conservation, metadata mismatches).
	Op int `json:"op"`
	// Kind categorizes the violation.
	Kind Kind `json:"kind"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

// String renders the violation compactly.
func (v Violation) String() string {
	if v.Op < 0 {
		return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("op %d [%s] %s", v.Op, v.Kind, v.Detail)
}

// Error is the typed error carrying a schedule's violations; the eval
// harness and the muzzled service fail verification with one of these.
type Error struct {
	// Circuit names the circuit whose schedule failed.
	Circuit string
	// Compiler names the compiler that produced the schedule (may be "").
	Compiler string
	// Violations holds every detected violation, in op order.
	Violations []Violation
}

// Error implements the error interface, listing the first violations.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: schedule for %q", e.Circuit)
	if e.Compiler != "" {
		fmt.Fprintf(&b, " (compiler %s)", e.Compiler)
	}
	fmt.Fprintf(&b, " has %d violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ... %d more", len(e.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "; %s", v.String())
	}
	return b.String()
}

// maxViolations caps the report: past it the replay stops and a truncation
// marker is appended, so one corrupt stream cannot cascade into an
// unbounded violation list.
const maxViolations = 32

// transit tracks an ion's shuttle-protocol phase.
type transit int

const (
	resident transit = iota // in a chain
	split                   // detached, awaiting MOVE
	moved                   // moved, awaiting MERGE
)

// replayer is the verifier's own machine state: it deliberately re-derives
// placement bookkeeping instead of reusing machine.State, so engine and
// verifier cannot share a bug.
type replayer struct {
	circ *circuit.Circuit
	cfg  machine.Config

	ions   []ionState
	chains [][]int // trap -> ordered chain

	order programOrder

	violations []Violation
	truncated  bool
}

// ionState is one ion's replay state.
type ionState struct {
	trap  int // the chain the ion belongs to, or its protocol anchor while in transit
	pos   int // index in its chain, while resident
	phase transit
	// splitEnd records which chain end the ion was detached from: 0 = low
	// end, 1 = high end, 2 = either (singleton chain). Valid while phase ==
	// split.
	splitEnd int
	// moveFrom records the MOVE's source trap while phase == moved (the
	// MERGE must insert at the end facing it).
	moveFrom int
}

// report appends a violation, respecting the cap.
func (r *replayer) report(op int, kind Kind, format string, args ...any) {
	if len(r.violations) >= maxViolations {
		r.truncated = true
		return
	}
	r.violations = append(r.violations, Violation{Op: op, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Replay verifies an op stream against the machine model from scratch:
// circ is the scheduled (native) circuit, cfg the machine, initial the
// starting trap contents, ops the full execution trace. It returns every
// violation found (nil means the schedule is legal). The input is not
// modified.
func Replay(circ *circuit.Circuit, cfg machine.Config, initial [][]int, ops []machine.Op) []Violation {
	r := newReplayer(circ, cfg, initial)
	if r == nil || len(r.violations) > 0 {
		// A broken machine config or placement invalidates all downstream
		// state tracking; report what we have rather than cascade.
		if r != nil {
			return r.violations
		}
		return []Violation{{Op: -1, Kind: KindPlacement, Detail: "nil circuit, topology, or machine config"}}
	}
	for i := range ops {
		if len(r.violations) >= maxViolations {
			break
		}
		r.step(i, &ops[i])
	}
	r.finalChecks()
	if r.truncated {
		r.violations = append(r.violations, Violation{Op: -1, Kind: KindMetadata,
			Detail: fmt.Sprintf("report truncated at %d violations", maxViolations)})
	}
	return r.violations
}

// newReplayer validates the configuration and initial placement and builds
// the tracking state. A nil return means the inputs were too malformed to
// replay at all.
func newReplayer(circ *circuit.Circuit, cfg machine.Config, initial [][]int) *replayer {
	if circ == nil || cfg.Topology == nil {
		return nil
	}
	r := &replayer{circ: circ, cfg: cfg}
	if err := cfg.Validate(); err != nil {
		r.report(-1, KindPlacement, "invalid machine config: %v", err)
		return r
	}
	if len(initial) != cfg.Topology.NumTraps() {
		r.report(-1, KindPlacement, "placement has %d traps, topology has %d",
			len(initial), cfg.Topology.NumTraps())
		return r
	}
	total := 0
	for _, chain := range initial {
		total += len(chain)
	}
	r.ions = make([]ionState, total)
	r.chains = make([][]int, len(initial))
	for i := range r.ions {
		r.ions[i].trap = -1
	}
	// Every chain gets room for a full trap up front, carved from one
	// backing array, so merges and splits shift in place. A trap never
	// legally holds more than every ion, which bounds the room whatever
	// Capacity claims; a chain that outgrows its room (an overfull
	// placement or a merge past capacity) moves to its own array.
	room := min(cfg.Capacity, total)
	backing := make([]int, len(initial)*room)
	for t, chain := range initial {
		if len(chain) > cfg.MaxInitialLoad() {
			r.report(-1, KindPlacement,
				"trap %d initially holds %d ions, exceeding capacity %d minus communication reservation %d",
				t, len(chain), cfg.Capacity, cfg.CommCapacity)
		}
		r.chains[t] = append(backing[t*room:t*room:(t+1)*room], chain...)
		for p, ion := range chain {
			if ion < 0 || ion >= total {
				r.report(-1, KindPlacement, "ion id %d outside dense range [0,%d)", ion, total)
				return r
			}
			if r.ions[ion].trap != -1 {
				r.report(-1, KindPlacement, "ion %d placed in trap %d and trap %d", ion, r.ions[ion].trap, t)
				return r
			}
			r.ions[ion] = ionState{trap: t, pos: p}
		}
	}
	if total < circ.NumQubits {
		r.report(-1, KindPlacement, "placement has %d ions, circuit needs %d", total, circ.NumQubits)
		return r
	}
	r.order = newProgramOrder(circ)
	return r
}

// ionOK guards an op's ion id; out-of-range ids make the op unreplayable.
// The guards below run on every op, so each keeps its report, with its
// formatting, in a separate function that only a failed check calls.
func (r *replayer) ionOK(i int, ion int, role string) bool {
	return uint(ion) < uint(len(r.ions)) || r.badIon(i, ion, role)
}

// trapOK guards an op's trap id.
func (r *replayer) trapOK(i int, trap int, role string) bool {
	return uint(trap) < uint(len(r.chains)) || r.badTrap(i, trap, role)
}

// badIon reports an out-of-range ion id and returns false.
func (r *replayer) badIon(i, ion int, role string) bool {
	r.report(i, KindPresence, "%s ion %d outside [0,%d)", role, ion, len(r.ions))
	return false
}

// badTrap reports an out-of-range trap id and returns false.
func (r *replayer) badTrap(i, trap int, role string) bool {
	r.report(i, KindPresence, "%s trap %d outside [0,%d)", role, trap, len(r.chains))
	return false
}

// residentAt checks the ion is resident in the claimed trap; a failed check
// reports and returns false (the op's mutation is skipped to avoid
// cascading corruption). A resident ion's trap is a valid trap, so the
// check also guards the op's ion and trap ids.
func (r *replayer) residentAt(i int, ion, trap int) bool {
	if uint(ion) < uint(len(r.ions)) {
		if s := &r.ions[ion]; s.phase == resident && s.trap == trap {
			return true
		}
	}
	return r.notResident(i, ion, trap)
}

// notResident reports why ion is not resident in trap, and returns false.
func (r *replayer) notResident(i int, ion, trap int) bool {
	if uint(ion) >= uint(len(r.ions)) {
		r.report(i, KindPresence, "ion %d outside [0,%d)", ion, len(r.ions))
		return false
	}
	switch s := &r.ions[ion]; s.phase {
	case split:
		r.report(i, KindPresence, "ion %d is split (awaiting MOVE), not resident", ion)
	case moved:
		r.report(i, KindPresence, "ion %d is in transit (awaiting MERGE), not resident", ion)
	default:
		r.report(i, KindPresence, "ion %d is in trap %d, op claims trap %d", ion, s.trap, trap)
	}
	return false
}

// renumber re-derives the positions of chain's ions from index from on,
// after a split or merge shifted them.
func (r *replayer) renumber(chain []int, from int) {
	for p := from; p < len(chain); p++ {
		r.ions[chain[p]].pos = p
	}
}

// step replays one op, reporting every invariant it breaks. Ops pass by
// address: the replay is the verifier's hot loop.
func (r *replayer) step(i int, op *machine.Op) {
	switch op.Kind {
	case machine.OpGate1Q, machine.OpMeasure:
		r.stepGate1Q(i, op)
	case machine.OpGate2Q:
		r.stepGate2Q(i, op)
	case machine.OpSwap:
		r.stepSwap(i, op)
	case machine.OpSplit:
		r.stepSplit(i, op)
	case machine.OpMove:
		r.stepMove(i, op)
	case machine.OpMerge:
		r.stepMerge(i, op)
	default:
		r.report(i, KindProtocol, "unknown op kind %d", int(op.Kind))
	}
}

func (r *replayer) stepGate1Q(i int, op *machine.Op) {
	ion, trap, gate := int(op.Ion), int(op.Trap), int(op.Gate)
	if !r.ionOK(i, ion, "gate") || !r.trapOK(i, trap, "gate") {
		return
	}
	r.residentAt(i, ion, trap)
	want := circuit.Kind1Q
	if op.Kind == machine.OpMeasure {
		want = circuit.KindMeasure
	}
	g := r.checkGate(i, op, want)
	if g == nil {
		return
	}
	if len(g.Qubits) != 1 {
		r.report(i, KindOrder, "gate %d (%s) has %d operands, op executes it as 1Q",
			gate, g.Name, len(g.Qubits))
		return
	}
	if g.Qubits[0] != ion {
		r.report(i, KindOrder, "gate %d (%s) acts on q[%d], op executes ion %d",
			gate, g.Name, g.Qubits[0], ion)
	}
}

func (r *replayer) stepGate2Q(i int, op *machine.Op) {
	ion, ion2, trap, gate := int(op.Ion), int(op.Ion2), int(op.Trap), int(op.Gate)
	if !r.ionOK(i, ion, "gate") || !r.ionOK(i, ion2, "gate") || !r.trapOK(i, trap, "gate") {
		return
	}
	r.residentAt(i, ion, trap)
	if r.ions[ion2].phase != resident {
		r.report(i, KindPresence, "ion %d is in transit during 2Q gate", ion2)
	} else if r.ions[ion2].trap != trap {
		r.report(i, KindCoLocation, "2Q gate on ions %d (T%d) and %d (T%d): not co-located",
			ion, r.ions[ion].trap, ion2, r.ions[ion2].trap)
	}
	g := r.checkGate(i, op, circuit.Kind2Q)
	if g == nil {
		return
	}
	if len(g.Qubits) != 2 {
		// The kind mismatch is already reported by checkGate; returning here
		// keeps the verifier panic-free on ops that execute a 1Q source gate
		// as 2Q (g.Qubits[1] would be out of range).
		r.report(i, KindOrder, "gate %d (%s) has %d operands, op executes it as 2Q",
			gate, g.Name, len(g.Qubits))
		return
	}
	qa, qb := g.Qubits[0], g.Qubits[1]
	if !(qa == ion && qb == ion2) && !(qa == ion2 && qb == ion) {
		r.report(i, KindOrder, "gate %d (%s) acts on q[%d],q[%d], op executes ions %d,%d",
			gate, g.Name, qa, qb, ion, ion2)
	}
}

// checkGate validates the op's source-gate reference (index, kind, name)
// and runs the gate in program order. It returns the source gate when the
// reference itself is usable, nil otherwise.
func (r *replayer) checkGate(i int, op *machine.Op, want circuit.GateKind) *circuit.Gate {
	gate := int(op.Gate)
	if gate < 0 || gate >= len(r.circ.Gates) {
		r.report(i, KindOrder, "op references gate %d outside circuit of %d gates", gate, len(r.circ.Gates))
		return nil
	}
	g := &r.circ.Gates[gate]
	k := g.Kind()
	if k != want {
		r.report(i, KindOrder, "op executes gate %d as %v, source gate is %v", gate, want, k)
	}
	if g.Name != op.Name.String() {
		r.report(i, KindOrder, "op names gate %d %q, source gate is %q", gate, op.Name, g.Name)
	}
	if k != circuit.KindBarrier {
		// A barrier records no trace op (the mismatch is reported above),
		// so only physical gates run in program order.
		r.order.run(r, i, gate, g)
	}
	return g
}

func (r *replayer) stepSwap(i int, op *machine.Op) {
	ion, ion2, trap := int(op.Ion), int(op.Ion2), int(op.Trap)
	if !r.residentAt(i, ion, trap) || !r.residentAt(i, ion2, trap) {
		return
	}
	a, b := &r.ions[ion], &r.ions[ion2]
	pa, pb := a.pos, b.pos
	if pa-pb != 1 && pb-pa != 1 {
		r.report(i, KindProtocol, "swap of non-adjacent ions %d (pos %d) and %d (pos %d) in trap %d",
			ion, pa, ion2, pb, trap)
		return
	}
	chain := r.chains[trap]
	chain[pa], chain[pb] = chain[pb], chain[pa]
	a.pos, b.pos = pb, pa
}

func (r *replayer) stepSplit(i int, op *machine.Op) {
	ion, trap := int(op.Ion), int(op.Trap)
	if !r.residentAt(i, ion, trap) {
		return
	}
	s := &r.ions[ion]
	chain := r.chains[trap]
	p := s.pos
	switch {
	case len(chain) == 1:
		s.splitEnd = 2
	case p == 0:
		s.splitEnd = 0
	case p == len(chain)-1:
		s.splitEnd = 1
	default:
		r.report(i, KindProtocol, "split of mid-chain ion %d (pos %d of %d) in trap %d",
			ion, p, len(chain), trap)
		return
	}
	chain = append(chain[:p], chain[p+1:]...)
	r.chains[trap] = chain
	r.renumber(chain, p)
	s.phase = split
}

func (r *replayer) stepMove(i int, op *machine.Op) {
	ion, trap, trap2 := int(op.Ion), int(op.Trap), int(op.Trap2)
	if !r.ionOK(i, ion, "move") || !r.trapOK(i, trap, "move source") || !r.trapOK(i, trap2, "move destination") {
		return
	}
	s := &r.ions[ion]
	if s.phase != split {
		r.report(i, KindProtocol, "move of ion %d without a preceding split", ion)
		return
	}
	if s.trap != trap {
		r.report(i, KindPresence, "move claims source trap %d, ion %d was split from trap %d",
			trap, ion, s.trap)
		return
	}
	adjacent := false
	for _, nb := range r.cfg.Topology.Neighbors(trap) {
		if nb == trap2 {
			adjacent = true
			break
		}
	}
	if !adjacent {
		r.report(i, KindEdge, "move of ion %d from trap %d to trap %d: no such topology edge",
			ion, trap, trap2)
	}
	// The split must have detached the ion from the chain end facing the
	// destination: the high end toward a higher-numbered trap, the low end
	// toward a lower-numbered one (the machine model's port convention).
	wantEnd := 0
	if trap2 > trap {
		wantEnd = 1
	}
	if e := s.splitEnd; e != 2 && e != wantEnd {
		r.report(i, KindProtocol, "ion %d split from the chain end facing away from destination trap %d",
			ion, trap2)
	}
	if len(r.chains[trap2]) >= r.cfg.Capacity {
		r.report(i, KindCapacity, "move of ion %d into trap %d which is full (%d/%d ions, no communication slot free)",
			ion, trap2, len(r.chains[trap2]), r.cfg.Capacity)
	}
	s.phase = moved
	s.moveFrom = trap
	s.trap = trap2
}

func (r *replayer) stepMerge(i int, op *machine.Op) {
	ion, trap := int(op.Ion), int(op.Trap)
	if !r.ionOK(i, ion, "merge") || !r.trapOK(i, trap, "merge") {
		return
	}
	s := &r.ions[ion]
	if s.phase != moved {
		r.report(i, KindProtocol, "merge of ion %d without a preceding move", ion)
		return
	}
	if s.trap != trap {
		r.report(i, KindPresence, "merge claims trap %d, ion %d moved to trap %d",
			trap, ion, s.trap)
		return
	}
	// Insert at the end facing the source trap (the machine model's merge
	// convention: an ion entering from a lower-numbered trap lands at the
	// low end, and vice versa).
	chain := append(r.chains[trap], ion)
	from := len(chain) - 1
	if s.moveFrom < trap {
		copy(chain[1:], chain)
		chain[0] = ion
		from = 0
	}
	r.renumber(chain, from)
	r.chains[trap] = chain
	s.phase = resident
	if len(chain) > r.cfg.Capacity {
		r.report(i, KindCapacity, "trap %d holds %d ions after merge, capacity %d",
			trap, len(chain), r.cfg.Capacity)
	}
}

// finalChecks runs the end-of-stream invariants: full execution coverage
// and ion conservation.
func (r *replayer) finalChecks() {
	if len(r.violations) >= maxViolations {
		r.truncated = true
		return
	}
	for g, done := range r.order.ran {
		if done || r.circ.Gates[g].Kind() == circuit.KindBarrier {
			continue
		}
		r.report(-1, KindOrder, "gate %d (%s) never executed", g, r.circ.Gates[g].Name)
	}
	for ion := 0; ion < len(r.ions); ion++ {
		switch r.ions[ion].phase {
		case split:
			r.report(-1, KindConservation, "ion %d left split (never moved) at end of stream", ion)
		case moved:
			r.report(-1, KindConservation, "ion %d left in transit (never merged) at end of stream", ion)
		}
	}
	// Conservation: every ion in exactly one chain. Per-op tracking keeps
	// this by construction unless an op corrupted state; re-derive to be
	// safe against the repair paths.
	seen := make([]int, len(r.ions))
	total := 0
	for t, chain := range r.chains {
		total += len(chain)
		if len(chain) > r.cfg.Capacity {
			r.report(-1, KindCapacity, "trap %d holds %d ions at end of stream, capacity %d",
				t, len(chain), r.cfg.Capacity)
		}
		for _, ion := range chain {
			if ion >= 0 && ion < len(r.ions) {
				seen[ion]++
			}
		}
	}
	for ion, n := range seen {
		switch {
		case n > 1:
			r.report(-1, KindConservation, "ion %d appears in %d chains", ion, n)
		case n == 0 && r.ions[ion].phase == resident:
			r.report(-1, KindConservation, "ion %d lost (in no chain)", ion)
		}
	}
	if total > len(r.ions) {
		r.report(-1, KindConservation, "chains hold %d ions, stream started with %d", total, len(r.ions))
	}
}
