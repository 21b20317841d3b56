// Package qasm implements a reader and writer for the subset of OpenQASM 2.0
// needed by the benchmark suite: quantum and classical registers, the
// standard gates recognised by the circuit package, gate definitions,
// barriers, and measurements.
//
// The Go ecosystem has no QASM support, so this package is built from
// scratch: a hand-written lexer that the parser pulls tokens from one at a
// time, a recursive-descent parser that records the program as a flat
// statement list, a small constant-expression evaluator for angle
// arguments (supporting pi, + - * /, unary minus and parentheses), and a
// deterministic writer whose output round-trips through the parser.
//
// # Limits
//
// Parse accepts untrusted input, so it bounds what a program may ask for:
//
//   - the registers of each kind may hold MaxQubits qubits (or classical
//     bits) together;
//   - the gate applications may expand, through broadcasts and gate
//     definitions, to MaxGates gates holding MaxOperands qubit operands
//     and MaxParams angle parameters;
//   - expanding them may take maxSteps steps, one per gate applied
//     (defined or built in) and per instruction of the angle expressions
//     evaluated;
//   - gate definitions may nest maxMacroDepth levels deep, and angle
//     expressions maxExprDepth levels.
//
// # Errors
//
// Parse reports one error, the first it meets:
//
//  1. the first lexical or syntax error in source order, including an
//     unknown register, an index out of range, a parameter that does not
//     evaluate, and a register that takes its kind past MaxQubits;
//  2. a program that declares no quantum register;
//  3. the first statement, in program order, that takes the expansion past
//     a limit: MaxGates, MaxOperands, MaxParams or maxSteps, checked in
//     that order;
//  4. the first error met while expanding the statements into gates, in
//     program order: a gate definition applied with the wrong number of
//     qubits or parameters or nested too deep, a body that does not
//     evaluate, or a gate that repeats an operand.
//
// The limits are checked by counting the statement list before any gate is
// built. The count follows the expansion up to the first definition that
// nests too deep, since the expansion stops there; it does not look for
// the other expansion errors, so a program that is over a limit reports
// the limit even if its expansion would also fail.
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // one punctuation character
	tokArrow  // ->
	tokError  // a lexical error; text holds its message
)

// token is one lexeme. Its text is a substring of the source, so making a
// token never allocates.
type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer produces the tokens of src one at a time. After a lexical error it
// keeps returning the same error token.
type lexer struct {
	src    string
	pos    int
	line   int
	failed token
}

func (l *lexer) fail(format string, args ...any) token {
	l.failed = token{kind: tokError, text: fmt.Sprintf(format, args...), line: l.line}
	return l.failed
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() {
	if l.src[l.pos] == '\n' {
		l.line++
	}
	l.pos++
}

// skipSpace consumes whitespace and // comments.
func (l *lexer) skipSpace() {
	for {
		b, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.advance()
		case b == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for {
				b, ok := l.peekByte()
				if !ok || b == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b))
}

func isIdentPart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// next returns the next token.
func (l *lexer) next() token {
	if l.failed.kind == tokError {
		return l.failed
	}
	l.skipSpace()
	line, start := l.line, l.pos
	b, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line}
	}
	kind := tokSymbol
	switch {
	case isIdentStart(b):
		kind = tokIdent
		for {
			b, ok := l.peekByte()
			if !ok || !isIdentPart(b) {
				break
			}
			l.advance()
		}
	case isDigit(b) || b == '.':
		kind = tokNumber
		seenE := false
		for {
			b, ok := l.peekByte()
			if !ok {
				break
			}
			if isDigit(b) || b == '.' {
				l.advance()
				continue
			}
			if (b == 'e' || b == 'E') && !seenE {
				seenE = true
				l.advance()
				if nb, ok := l.peekByte(); ok && (nb == '+' || nb == '-') {
					l.advance()
				}
				continue
			}
			break
		}
	case b == '"':
		l.advance()
		for {
			b, ok := l.peekByte()
			if !ok {
				return l.fail("unterminated string")
			}
			if b == '"' {
				break
			}
			l.advance()
		}
		l.advance() // closing quote
		return token{kind: tokString, text: l.src[start+1 : l.pos-1], line: line}
	case b == '-':
		l.advance()
		if nb, ok := l.peekByte(); ok && nb == '>' {
			l.advance()
			kind = tokArrow
		}
	case strings.IndexByte(";,()[]{}+*/=", b) >= 0:
		l.advance()
	default:
		return l.fail("unexpected character %q", b)
	}
	return token{kind: kind, text: l.src[start:l.pos], line: line}
}
