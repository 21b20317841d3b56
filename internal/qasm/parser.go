package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"muzzle/internal/circuit"
)

const (
	// MaxQubits caps the qubits of all quantum registers together, and
	// likewise the bits of all classical registers. A whole-register
	// operand broadcasts one gate per qubit, so without a cap a few bytes
	// of source ask for gigabytes ("qreg q[10000000]; h q;"); 65,536 is
	// hundreds of times what the paper's largest machine holds.
	MaxQubits = 1 << 16
	// MaxGates caps the gates a program expands to. Nested two-call gate
	// definitions double the gate count per line of source, so a program
	// of a few hundred bytes could otherwise ask for 2^32 gates; 2^20 is
	// over a hundred times the paper's largest benchmark.
	MaxGates = 1 << 20
	// MaxOperands caps the qubit operands of those gates together, four
	// per gate on average. A barrier holds one operand per qubit it spans,
	// so without it a program of MaxGates wide barriers would still hold
	// billions of operands.
	MaxOperands = 4 * MaxGates
	// MaxParams caps the angle parameters of those gates together, four
	// per gate on average. Every gate holds its own copy of its
	// parameters, so without it one application of a gate with thousands
	// of parameters to a wide register would hold gigabytes.
	MaxParams = 4 * MaxGates
)

const (
	// maxMacroDepth is how deep gate definitions may nest when applied.
	maxMacroDepth = 32
	// maxSteps caps the work of expanding the applications: one step per
	// gate applied, defined or built in, and per instruction of the angle
	// expressions evaluated. Definitions with empty bodies or long
	// expressions take work without adding gates, so without it 32 nested
	// definitions of three calls each would take 3^32 steps to expand into
	// no gates at all.
	maxSteps = 8 * MaxGates
	// maxExprDepth is how deep parentheses and signs may nest in an angle
	// expression, which bounds the recursive descent's stack.
	maxExprDepth = 64
)

// Parse reads OpenQASM 2.0 source and returns the circuit it describes.
//
// Supported subset:
//   - OPENQASM 2.0; and include "..."; headers (include is ignored)
//   - qreg declarations (multiple qregs are concatenated into one
//     register, offset in declaration order) and creg declarations
//     (concatenated the same way into one classical register)
//   - gate applications with optional parenthesised angle expressions
//   - barrier over explicit qubits or whole registers
//   - measure q[i] -> c[j]; including whole-register broadcast — the
//     classical target is recorded on the gate (Gate.Cbit), so the
//     measurement wiring survives a parse -> write -> parse round trip
//
// Gate definitions ("gate ... { }") are parsed and expanded inline when
// applied, so files from common generators (Qiskit dumps) load correctly.
// Applications resolve definitions after the whole program is read, so a
// gate may be applied before its definition, and the last definition of a
// name wins. The package documentation lists the limits on what a program
// may expand to and the order in which errors are reported.
func Parse(name, src string) (*circuit.Circuit, error) {
	p := &parser{lex: lexer{src: src, line: 1}, name: name, regs: map[string]regInfo{}}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if p.qsize == 0 {
		return nil, fmt.Errorf("qasm %q: no qreg declared", name)
	}
	total, err := p.count()
	if err != nil {
		return nil, err
	}
	return p.build(total.gates)
}

type regInfo struct {
	offset int
	size   int
	kind   byte // 'q' or 'c'
}

// span is count consecutive indices from first: an operand (one qubit or
// classical bit, or a whole register), or a run of the parser's operands,
// parameters or expression code.
type span struct{ first, count int }

type stmtKind uint8

const (
	stmtGate stmtKind = iota
	stmtBarrier
	stmtMeasure // ops holds the qubits, then the classical bits
)

// stmt is one gate, barrier or measure statement of the program.
type stmt struct {
	kind   stmtKind
	line   int
	name   string
	ops    span // in parser.ops
	params span // in parser.params
}

// macro is a user gate definition.
type macro struct {
	nparams int // formal angle parameters
	nargs   int // formal qubit arguments
	body    []macroOp
	size    *sized // set by count when it first measures an application
}

type macroOp struct {
	name   string
	params []span   // expressions, each a run of parser.code
	args   []formal // qubit arguments
}

// formal is a name in a gate body, resolved to the position of the formal
// parameter or qubit argument it names, or -1 if it names none. When two
// formals share a name, the last one wins.
type formal struct {
	name  string
	index int
}

func resolve(names []string, name string) formal {
	for i := len(names) - 1; i >= 0; i-- {
		if names[i] == name {
			return formal{name, i}
		}
	}
	return formal{name, -1}
}

// instr is one step of an angle expression compiled to postfix form.
type instr struct {
	op  byte    // 'n' pushes num, 'v' pushes parameter v, '~' negates, + - * / combine
	num float64 // 'n'
	v   formal  // 'v'
}

// expansion is what applying a gate costs: the gates it emits, their qubit
// operands and parameters, and the steps expanding it takes, each capped
// just past its limit; and whether the expansion stops early on a
// definition nested too deep.
type expansion struct {
	gates, operands, params, steps int
	deep                           bool
}

func (e *expansion) add(o expansion) {
	e.gates = min(e.gates+o.gates, MaxGates+1)
	e.operands = min(e.operands+o.operands, MaxOperands+1)
	e.params = min(e.params+o.params, MaxParams+1)
	e.steps = min(e.steps+o.steps, maxSteps+1)
}

// sized is what one application of a definition costs, and how many levels
// of definitions nest below it.
type sized struct {
	expansion
	height int
}

type parser struct {
	lex  lexer
	tok  token // the lookahead, valid when have is set
	have bool

	name   string
	regs   map[string]regInfo
	qsize  int
	csize  int
	macros map[string]*macro

	stmts  []stmt
	ops    []span
	params []float64
	code   []instr // gate bodies' expressions, then the one being parsed

	// Scratch for eval and build, used as stacks.
	stack  []float64
	qubits []int
	vals   []float64
}

// cur returns the lookahead token, lexing it on first use: a statement is
// parsed before the source after it is lexed, so errors come in source
// order.
func (p *parser) cur() token {
	if !p.have {
		p.tok = p.lex.next()
		p.have = true
	}
	return p.tok
}

func (p *parser) advance() token {
	t := p.cur()
	p.have = false
	return t
}

func (p *parser) isSymbol(s string) bool {
	t := p.cur()
	return t.kind == tokSymbol && t.text == s
}

// errorf reports an error at token t; at an error token, the lexical error
// is the one reported.
func (p *parser) errorf(t token, format string, args ...any) error {
	if t.kind == tokError {
		return fmt.Errorf("qasm: line %d: %s", t.line, t.text)
	}
	return p.errorAt(t.line, format, args...)
}

func (p *parser) errorAt(line int, format string, args ...any) error {
	return fmt.Errorf("qasm %q: line %d: %s", p.name, line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.advance()
	if t.kind != tokSymbol && t.kind != tokArrow || t.text != s {
		return p.errorf(t, "expected %q, found %s", s, t)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return t, p.errorf(t, "expected identifier, found %s", t)
	}
	return t, nil
}

func (p *parser) parseProgram() error {
	// Header: OPENQASM 2.0;
	if t := p.cur(); t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		if t := p.advance(); t.kind != tokNumber {
			return p.errorf(t, "expected version number")
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
	}
	for p.cur().kind != tokEOF {
		t := p.cur()
		if t.kind != tokIdent {
			return p.errorf(t, "expected statement, found %s", t)
		}
		var err error
		switch t.text {
		case "include":
			p.advance()
			if t := p.advance(); t.kind != tokString {
				return p.errorf(t, "expected include path string")
			}
			err = p.expectSymbol(";")
		case "qreg", "creg":
			err = p.parseRegDecl(t.text)
		case "gate":
			err = p.parseGateDef()
		case "barrier":
			err = p.parseBarrier()
		case "measure":
			err = p.parseMeasure()
		case "if", "reset", "opaque":
			err = p.errorf(t, "unsupported statement %q", t.text)
		default:
			err = p.parseApplication()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseRegDecl(kind string) error {
	p.advance() // qreg/creg
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	sizeTok := p.advance()
	if sizeTok.kind != tokNumber {
		return p.errorf(sizeTok, "expected register size")
	}
	size, err := strconv.Atoi(sizeTok.text)
	if err != nil || size <= 0 {
		return p.errorf(sizeTok, "invalid register size %q", sizeTok.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if _, dup := p.regs[nameTok.text]; dup {
		return p.errorf(nameTok, "register %q redeclared", nameTok.text)
	}
	total, unit := &p.qsize, "qubits"
	if kind == "creg" {
		total, unit = &p.csize, "classical bits"
	}
	if size > MaxQubits-*total {
		return p.errorf(sizeTok, "register %q takes the program past %d %s", nameTok.text, MaxQubits, unit)
	}
	p.regs[nameTok.text] = regInfo{offset: *total, size: size, kind: kind[0]}
	*total += size
	return nil
}

// parseRef parses name[idx] or a bare register name (the whole register)
// and returns the global indices it denotes: qubits for kind 'q', classical
// bits for kind 'c'.
func (p *parser) parseRef(kind byte) (span, error) {
	nameTok, err := p.expectIdent()
	if err != nil {
		return span{}, err
	}
	ri, ok := p.regs[nameTok.text]
	what := "qubit"
	switch {
	case kind == 'c':
		what = "bit"
		if !ok || ri.kind != 'c' {
			return span{}, p.errorf(nameTok, "unknown classical register %q", nameTok.text)
		}
	case !ok:
		return span{}, p.errorf(nameTok, "unknown register %q", nameTok.text)
	case ri.kind != 'q':
		return span{}, p.errorf(nameTok, "register %q is classical", nameTok.text)
	}
	if !p.isSymbol("[") {
		return span{ri.offset, ri.size}, nil
	}
	p.advance()
	idxTok := p.advance()
	if idxTok.kind != tokNumber {
		return span{}, p.errorf(idxTok, "expected %s index", what)
	}
	idx, err := strconv.Atoi(idxTok.text)
	if err != nil || idx < 0 || idx >= ri.size {
		return span{}, p.errorf(idxTok, "%s index %q out of range for %s[%d]", what, idxTok.text, nameTok.text, ri.size)
	}
	if err := p.expectSymbol("]"); err != nil {
		return span{}, err
	}
	return span{ri.offset + idx, 1}, nil
}

// parseOperands parses a comma-separated list of qubit references onto
// p.ops and returns its run.
func (p *parser) parseOperands() (span, error) {
	first := len(p.ops)
	for {
		s, err := p.parseRef('q')
		if err != nil {
			return span{}, err
		}
		p.ops = append(p.ops, s)
		if !p.isSymbol(",") {
			return span{first, len(p.ops) - first}, nil
		}
		p.advance()
	}
}

func (p *parser) parseBarrier() error {
	tok := p.advance() // barrier
	ops, err := p.parseOperands()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.stmts = append(p.stmts, stmt{kind: stmtBarrier, line: tok.line, name: "barrier", ops: ops})
	return nil
}

func (p *parser) parseMeasure() error {
	tok := p.advance() // measure
	qs, err := p.parseRef('q')
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	cs, err := p.parseRef('c')
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if qs.count != cs.count {
		return p.errorf(tok, "measure maps %d qubit(s) to %d classical bit(s)", qs.count, cs.count)
	}
	p.ops = append(p.ops, qs, cs)
	p.stmts = append(p.stmts, stmt{kind: stmtMeasure, line: tok.line, name: "measure", ops: span{len(p.ops) - 2, 2}})
	return nil
}

// parseIdents parses a comma-separated identifier list.
func (p *parser) parseIdents() ([]string, error) {
	var names []string
	for {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, t.text)
		if !p.isSymbol(",") {
			return names, nil
		}
		p.advance()
	}
}

// parseGateDef parses "gate name(p1,p2) a,b { body }".
func (p *parser) parseGateDef() error {
	p.advance() // gate
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	var params []string
	if p.isSymbol("(") {
		p.advance()
		for !p.isSymbol(")") {
			pt, err := p.expectIdent()
			if err != nil {
				return err
			}
			params = append(params, pt.text)
			if p.isSymbol(",") {
				p.advance()
			}
		}
		p.advance() // )
	}
	args, err := p.parseIdents()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	m := &macro{nparams: len(params), nargs: len(args)}
	for !p.isSymbol("}") {
		if p.cur().kind == tokEOF {
			return p.errorf(p.cur(), "unterminated gate body for %q", nameTok.text)
		}
		nt, err := p.expectIdent()
		if err != nil {
			return err
		}
		op := macroOp{name: nt.text}
		if p.isSymbol("(") {
			p.advance()
			for !p.isSymbol(")") {
				first := len(p.code)
				if err := p.parseExpr(params, 0); err != nil {
					return err
				}
				op.params = append(op.params, span{first, len(p.code) - first})
				if p.isSymbol(",") {
					p.advance()
				}
			}
			p.advance() // )
		}
		names, err := p.parseIdents()
		if err != nil {
			return err
		}
		op.args = make([]formal, len(names))
		for i, a := range names {
			op.args[i] = resolve(args, a)
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
		m.body = append(m.body, op)
	}
	p.advance() // }
	if p.macros == nil {
		p.macros = map[string]*macro{}
	}
	p.macros[nameTok.text] = m
	return nil
}

// parseApplication parses a gate application statement. Its parameters
// are evaluated here, so the statement records their values.
func (p *parser) parseApplication() error {
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	params := span{first: len(p.params)}
	if p.isSymbol("(") {
		p.advance()
		for !p.isSymbol(")") {
			first := len(p.code)
			if err := p.parseExpr(nil, 0); err != nil {
				return err
			}
			v, err := p.eval(p.code[first:], nil)
			p.code = p.code[:first]
			if err != nil {
				return p.errorf(nameTok, "%v", err)
			}
			p.params = append(p.params, v)
			if p.isSymbol(",") {
				p.advance()
			}
		}
		p.advance() // )
	}
	params.count = len(p.params) - params.first
	ops, err := p.parseOperands()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.stmts = append(p.stmts, stmt{kind: stmtGate, line: nameTok.line, name: nameTok.text, ops: ops, params: params})
	return nil
}

// parseExpr compiles an angle expression, term (('+'|'-') term)*, onto
// p.code; formals names the parameters it may refer to besides pi.
func (p *parser) parseExpr(formals []string, depth int) error {
	if err := p.parseTerm(formals, depth); err != nil {
		return err
	}
	for p.isSymbol("+") || p.isSymbol("-") {
		op := p.advance().text[0]
		if err := p.parseTerm(formals, depth); err != nil {
			return err
		}
		p.code = append(p.code, instr{op: op})
	}
	return nil
}

func (p *parser) parseTerm(formals []string, depth int) error {
	if err := p.parseFactor(formals, depth); err != nil {
		return err
	}
	for p.isSymbol("*") || p.isSymbol("/") {
		op := p.advance().text[0]
		if err := p.parseFactor(formals, depth); err != nil {
			return err
		}
		p.code = append(p.code, instr{op: op})
	}
	return nil
}

func (p *parser) parseFactor(formals []string, depth int) error {
	t := p.cur()
	if depth > maxExprDepth {
		return p.errorf(t, "expression nested more than %d levels deep", maxExprDepth)
	}
	switch {
	case t.kind == tokSymbol && t.text == "-":
		p.advance()
		if err := p.parseFactor(formals, depth+1); err != nil {
			return err
		}
		p.code = append(p.code, instr{op: '~'})
	case t.kind == tokSymbol && t.text == "+":
		p.advance()
		return p.parseFactor(formals, depth+1)
	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		if err := p.parseExpr(formals, depth+1); err != nil {
			return err
		}
		return p.expectSymbol(")")
	case t.kind == tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return p.errorf(t, "bad number %q", t.text)
		}
		p.code = append(p.code, instr{op: 'n', num: v})
	case t.kind == tokIdent && t.text == "pi":
		p.advance()
		p.code = append(p.code, instr{op: 'n', num: math.Pi})
	case t.kind == tokIdent:
		p.advance()
		p.code = append(p.code, instr{op: 'v', v: resolve(formals, t.text)})
	default:
		return p.errorf(t, "unexpected token %s in expression", t)
	}
	return nil
}

// eval runs compiled expression code over the parameter values env.
// Operations apply in the order a tree walk of the expression would apply
// them, so the first error is the one such a walk meets.
func (p *parser) eval(code []instr, env []float64) (float64, error) {
	st := p.stack[:0]
	for _, in := range code {
		switch in.op {
		case 'n':
			st = append(st, in.num)
		case 'v':
			if in.v.index < 0 {
				return 0, fmt.Errorf("unknown identifier %q in expression", in.v.name)
			}
			st = append(st, env[in.v.index])
		case '~':
			st[len(st)-1] = -st[len(st)-1]
		default:
			l, r := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-1]
			switch in.op {
			case '+':
				l += r
			case '-':
				l -= r
			case '*':
				l *= r
			case '/':
				if r == 0 {
					return 0, fmt.Errorf("division by zero in expression")
				}
				l /= r
			}
			st[len(st)-1] = l
		}
	}
	p.stack = st
	return st[0], nil
}

// width is how many gates an application over ops broadcasts to.
func width(ops []span) int {
	w := 1
	for _, o := range ops {
		w = max(w, o.count)
	}
	return w
}

// count returns what the statements expand to, after checking that the
// expansion stays within the limits.
func (p *parser) count() (expansion, error) {
	var total expansion
	for _, s := range p.stmts {
		ops := p.ops[s.ops.first : s.ops.first+s.ops.count]
		var e expansion
		switch s.kind {
		case stmtBarrier:
			e.gates = 1
			for _, o := range ops {
				e.operands += o.count
			}
		case stmtMeasure:
			e.gates, e.operands = ops[0].count, ops[0].count
		case stmtGate:
			// An expansion that stops early stops in the first broadcast.
			e, _ = p.size(s.name, len(ops), s.params.count, 0)
			if !e.deep {
				w := width(ops)
				e.gates *= w
				e.operands *= w
				e.params *= w
				e.steps *= w
			}
		}
		total.gates += e.gates
		total.operands += e.operands
		total.params += e.params
		total.steps += e.steps
		switch {
		case total.gates > MaxGates:
			return expansion{}, p.errorAt(s.line, "%q takes the program past %d gates", s.name, MaxGates)
		case total.operands > MaxOperands:
			return expansion{}, p.errorAt(s.line, "%q takes the program past %d gate operands", s.name, MaxOperands)
		case total.params > MaxParams:
			return expansion{}, p.errorAt(s.line, "%q takes the program past %d gate parameters", s.name, MaxParams)
		case total.steps > maxSteps:
			return expansion{}, p.errorAt(s.line, "%q takes the program past %d expansion steps", s.name, maxSteps)
		}
		if e.deep {
			break // the expansion stops in this statement
		}
	}
	return total, nil
}

// size is count's measure of applying the named gate to nargs qubits with
// nparams parameters at the given nesting depth, and the number of levels
// of definitions that nest below it. It follows expand. An application
// costs the same at every depth it fits in, so each definition is measured
// once; only an application that nests too deep, which ends the count, is
// measured again.
func (p *parser) size(name string, nargs, nparams, depth int) (expansion, int) {
	if depth > maxMacroDepth {
		return expansion{deep: true}, 0
	}
	m, ok := p.macros[name]
	if !ok {
		switch name {
		case "id":
			return expansion{steps: 1}, 0
		case "u2":
			if nparams == 2 {
				nparams = 3 // expand supplies the first angle
			}
		}
		return expansion{gates: 1, operands: nargs, params: nparams, steps: 1}, 0
	}
	if m.size != nil && depth+m.size.height <= maxMacroDepth {
		return m.size.expansion, m.size.height
	}
	e, height := expansion{steps: 1}, 0
	for _, op := range m.body {
		o, h := p.size(op.name, len(op.args), len(op.params), depth+1)
		for _, code := range op.params {
			o.steps += code.count
		}
		e.add(o)
		if o.deep {
			e.deep = true
			return e, 0
		}
		height = max(height, h+1)
	}
	m.size = &sized{e, height}
	return e, height
}

// build expands the statements into a circuit with room for its gates.
func (p *parser) build(gates int) (*circuit.Circuit, error) {
	c := circuit.New(p.name, p.qsize)
	c.Gates = make([]circuit.Gate, 0, gates)
	for _, s := range p.stmts {
		ops := p.ops[s.ops.first : s.ops.first+s.ops.count]
		switch s.kind {
		case stmtBarrier:
			qs := p.qubits[:0]
			for _, o := range ops {
				for q := o.first; q < o.first+o.count; q++ {
					qs = append(qs, q)
				}
			}
			p.qubits = qs
			if err := c.AddCopy(s.name, qs, nil); err != nil {
				return nil, p.errorAt(s.line, "%v", err)
			}
		case stmtMeasure:
			qs, cs := ops[0], ops[1]
			for i := range qs.count {
				q := [1]int{qs.first + i}
				if err := c.CopyGate(circuit.Gate{Name: s.name, Qubits: q[:], Cbit: cs.first + i}); err != nil {
					return nil, p.errorAt(s.line, "%v", err)
				}
			}
		case stmtGate:
			// Broadcast whole-register operands like QASM does: all
			// operand registers must have equal length (or length 1).
			params := p.params[s.params.first : s.params.first+s.params.count]
			for i := range width(ops) {
				qs := p.qubits[:0]
				for _, o := range ops {
					switch {
					case o.count == 1:
						qs = append(qs, o.first)
					case i < o.count:
						qs = append(qs, o.first+i)
					default:
						return nil, p.errorAt(s.line, "mismatched register lengths in %q application", s.name)
					}
				}
				p.qubits = qs
				if err := p.expand(c, s.line, s.name, params, qs, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	return c, nil
}

// expand appends the gates that applying name to qubits with params makes,
// expanding gate definitions; depth is the definition nesting so far. The
// arguments of nested applications are pushed onto p.qubits and p.vals
// above the caller's and popped on return.
func (p *parser) expand(c *circuit.Circuit, line int, name string, params []float64, qubits []int, depth int) error {
	if depth > maxMacroDepth {
		return p.errorAt(line, "gate %q expansion too deep (recursive definition?)", name)
	}
	if m, ok := p.macros[name]; ok {
		if len(qubits) != m.nargs {
			return p.errorAt(line, "gate %q expects %d qubits, got %d", name, m.nargs, len(qubits))
		}
		if len(params) != m.nparams {
			return p.errorAt(line, "gate %q expects %d parameters, got %d", name, m.nparams, len(params))
		}
		for _, op := range m.body {
			nv, nq := len(p.vals), len(p.qubits)
			for _, e := range op.params {
				v, err := p.eval(p.code[e.first:e.first+e.count], params)
				if err != nil {
					return p.errorAt(line, "in gate %q: %v", name, err)
				}
				p.vals = append(p.vals, v)
			}
			for _, a := range op.args {
				if a.index < 0 {
					return p.errorAt(line, "in gate %q: unknown qubit argument %q", name, a.name)
				}
				p.qubits = append(p.qubits, qubits[a.index])
			}
			err := p.expand(c, line, op.name, p.vals[nv:], p.qubits[nq:], depth+1)
			p.vals, p.qubits = p.vals[:nv], p.qubits[:nq]
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Built-in gate: normalize the QASM u1/u2/u3 family and CX alias.
	switch name {
	case "CX":
		name = "cx"
	case "u1":
		name = "rz"
	case "u2":
		if len(params) == 2 {
			params = []float64{math.Pi / 2, params[0], params[1]}
		}
		name = "u"
	case "id":
		return nil
	}
	if err := c.AddCopy(name, qubits, params); err != nil {
		return p.errorAt(line, "%v", err)
	}
	return nil
}

// stripExt trims a trailing extension from a name; helper for callers naming
// circuits after files.
func stripExt(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
