package circuit

import (
	"fmt"
	"math"
)

// Native gate set for trapped-ion hardware, following the convention of the
// QCCD literature (paper Section II-B): arbitrary single-qubit rotations
// R(theta, phi), virtual RZ, and the two-qubit Molmer-Sorensen (MS) gate.
//
// Decompositions below use the standard textbook identities. Gate *counts*
// are what matter for shuttle behaviour; in particular one CX costs exactly
// one MS (plus single-qubit corrections), and one controlled-phase costs two
// CX, which reproduces the paper's 2Q-gate accounting (e.g. QFT-64 has
// 64*63 = 4032 two-qubit gates after CP decomposition).

// IsNative reports whether the gate mnemonic belongs to the trapped-ion
// native set handled directly by the machine model.
func IsNative(name string) bool {
	switch name {
	case "r", "rz", "ms", "barrier", "measure":
		return true
	}
	return false
}

// Decompose rewrites c into an equivalent circuit using only native gates.
// Unknown mnemonics produce an error. The input circuit is not modified.
func Decompose(c *Circuit) (*Circuit, error) {
	out := New(c.Name, c.NumQubits)
	// Pre-size the gate list from the known expansion factors so large
	// decompositions don't pay repeated slice-growth copies.
	est := 0
	for _, g := range c.Gates {
		est += nativeCost(g.Name)
	}
	out.Gates = make([]Gate, 0, est)
	for i, g := range c.Gates {
		if err := decomposeGate(out, g); err != nil {
			return nil, fmt.Errorf("circuit %q: gate %d: %w", c.Name, i, err)
		}
	}
	return out, nil
}

func decomposeGate(out *Circuit, g Gate) error {
	q := g.Qubits
	p := g.Params
	param := func(i int) float64 {
		if i < len(p) {
			return p[i]
		}
		return 0
	}
	switch g.Name {
	case "r": // R(theta, phi): rotation by theta about cos(phi)X+sin(phi)Y
		out.Add1Q("r", q[0], param(0), param(1))
	case "rz":
		out.Add1Q("rz", q[0], param(0))
	case "ms":
		out.Add2Q("ms", q[0], q[1], param(0))
	case "barrier":
		if err := out.AddCopy("barrier", q, nil); err != nil {
			return err
		}
	case "measure":
		out.AddMeasure(q[0], g.Cbit)
	case "x":
		out.Add1Q("r", q[0], math.Pi, 0)
	case "y":
		out.Add1Q("r", q[0], math.Pi, math.Pi/2)
	case "z":
		out.Add1Q("rz", q[0], math.Pi)
	case "s":
		out.Add1Q("rz", q[0], math.Pi/2)
	case "sdg":
		out.Add1Q("rz", q[0], -math.Pi/2)
	case "t":
		out.Add1Q("rz", q[0], math.Pi/4)
	case "tdg":
		out.Add1Q("rz", q[0], -math.Pi/4)
	case "h": // H = RZ(pi) . R(pi/2, pi/2)  (up to global phase)
		out.Add1Q("r", q[0], math.Pi/2, math.Pi/2)
		out.Add1Q("rz", q[0], math.Pi)
	case "rx":
		out.Add1Q("r", q[0], param(0), 0)
	case "ry":
		out.Add1Q("r", q[0], param(0), math.Pi/2)
	case "u", "u3": // U(theta,phi,lambda) = RZ(phi) R(theta, ...) RZ(lambda)
		out.Add1Q("rz", q[0], param(2))
		out.Add1Q("r", q[0], param(0), math.Pi/2)
		out.Add1Q("rz", q[0], param(1))
	case "cx": // 1 MS + 4 single-qubit corrections (Maslov 2017 Eq. 6)
		out.Add1Q("r", q[0], math.Pi/2, math.Pi/2) // Ry(pi/2) on control
		out.Add2Q("ms", q[0], q[1], math.Pi/4)
		out.Add1Q("r", q[0], -math.Pi/2, 0) // Rx(-pi/2)
		out.Add1Q("r", q[1], -math.Pi/2, 0)
		out.Add1Q("r", q[0], -math.Pi/2, math.Pi/2) // Ry(-pi/2)
	case "cz": // CZ = (I ⊗ H) CX (I ⊗ H)
		if err := decomposeGate(out, Gate{Name: "h", Qubits: q[1:2]}); err != nil {
			return err
		}
		if err := decomposeGate(out, Gate{Name: "cx", Qubits: q}); err != nil {
			return err
		}
		return decomposeGate(out, Gate{Name: "h", Qubits: q[1:2]})
	case "cp", "cu1": // controlled-phase: 2 CX + 3 RZ
		th := param(0)
		out.Add1Q("rz", q[0], th/2)
		if err := decomposeGate(out, Gate{Name: "cx", Qubits: q}); err != nil {
			return err
		}
		out.Add1Q("rz", q[1], -th/2)
		if err := decomposeGate(out, Gate{Name: "cx", Qubits: q}); err != nil {
			return err
		}
		out.Add1Q("rz", q[1], th/2)
	case "rzz": // exp(-i th/2 ZZ): 2 CX + 1 RZ
		if err := decomposeGate(out, Gate{Name: "cx", Qubits: q}); err != nil {
			return err
		}
		out.Add1Q("rz", q[1], param(0))
		return decomposeGate(out, Gate{Name: "cx", Qubits: q})
	case "swap": // 3 CX
		for i := 0; i < 3; i++ {
			a, b := q[0], q[1]
			if i == 1 {
				a, b = b, a
			}
			if err := decomposeGate(out, Gate{Name: "cx", Qubits: []int{a, b}}); err != nil {
				return err
			}
		}
	case "ccx": // Toffoli: standard 6-CX network (Nielsen & Chuang Fig. 4.9)
		a, b, t := q[0], q[1], q[2]
		steps := []Gate{
			{Name: "h", Qubits: []int{t}},
			{Name: "cx", Qubits: []int{b, t}},
			{Name: "tdg", Qubits: []int{t}},
			{Name: "cx", Qubits: []int{a, t}},
			{Name: "t", Qubits: []int{t}},
			{Name: "cx", Qubits: []int{b, t}},
			{Name: "tdg", Qubits: []int{t}},
			{Name: "cx", Qubits: []int{a, t}},
			{Name: "t", Qubits: []int{b}},
			{Name: "t", Qubits: []int{t}},
			{Name: "h", Qubits: []int{t}},
			{Name: "cx", Qubits: []int{a, b}},
			{Name: "t", Qubits: []int{a}},
			{Name: "tdg", Qubits: []int{b}},
			{Name: "cx", Qubits: []int{a, b}},
		}
		for _, s := range steps {
			if err := decomposeGate(out, s); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("no native decomposition for gate %q", g.Name)
	}
	return nil
}

// nativeCost returns the exact number of native gates the named gate
// decomposes into (used to pre-size the output gate list).
func nativeCost(name string) int {
	switch name {
	case "r", "rz", "ms", "barrier", "measure", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry":
		return 1
	case "h":
		return 2
	case "u", "u3":
		return 3
	case "cx":
		return 5
	case "cz":
		return 2*2 + 5
	case "cp", "cu1":
		return 3 + 2*5
	case "rzz":
		return 1 + 2*5
	case "swap":
		return 3 * 5
	case "ccx":
		return 2*2 + 6*5 + 7
	default:
		return 1
	}
}

// MSCost returns the number of MS gates the named gate costs after
// decomposition (0 for 1Q gates). It is used by generators to reason about
// 2Q budgets without materializing the decomposition.
func MSCost(name string) int {
	switch name {
	case "ms", "cx", "cz":
		return 1
	case "cp", "cu1", "rzz":
		return 2
	case "swap":
		return 3
	case "ccx":
		return 6
	default:
		return 0
	}
}
