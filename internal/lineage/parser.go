package lineage

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a lineage formula in the paper's rendered syntax, e.g.
//
//	c1∧¬(a1∨b1)
//
// ASCII operator spellings are accepted too: & or * for ∧, | or + for ∨,
// ! or ~ for ¬, and the word "null" for the null lineage (returned as nil).
// Variable probabilities are resolved through the probs callback, which
// maps a tuple identifier to its marginal probability; it is called once
// per occurrence.
//
// Grammar (precedence low → high):
//
//	or   = and { ("∨" | "|" | "+") and } .
//	and  = not { ("∧" | "&" | "*") not } .
//	not  = { "¬" | "!" | "~" } atom .
//	atom = ident | "(" or ")" .
//
// Parse is the inverse of (*Expr).String up to operator associativity:
// rendering and re-parsing yields a syntactically equivalent formula.
//
// A formula nested deeper than maxDepth is an error.
func Parse(input string, probs func(id string) (float64, error)) (*Expr, error) {
	p := &formulaParser{in: strings.TrimSpace(input), probs: probs}
	if p.in == "null" || p.in == "" {
		return nil, nil
	}
	e, _, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.in) {
		return nil, fmt.Errorf("lineage: unexpected %q at offset %d", p.in[p.pos:], p.pos)
	}
	return e, nil
}

// IsVarName reports whether Parse(s) returns the single variable s: s
// is a non-empty run of identifier runes (letters, digits, '_', '.' and
// '-') other than the word "null". A loader admits such a column as a
// variable name without parsing it.
func IsVarName(s string) bool {
	if s == "" || s == "null" {
		return false
	}
	for _, r := range s { // invalid UTF-8 reads as U+FFFD, not an identifier rune
		if !isIdentRune(r) {
			return false
		}
	}
	return true
}

// isIdentRune is the identifier rule of the grammar's ident: a letter, a
// digit, '_', '.' or '-'. ASCII is decided without the Unicode tables.
func isIdentRune(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '_' || r == '.' || r == '-'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// maxDepth bounds how deep a parsed formula nests: parentheses open at
// once, and the height of the tree built, where each negation and each
// operator of a chain adds a level (a chain folds left, so a1∧…∧an is n−1
// levels). Parse and every recursive walk over its result then stay
// within a bounded stack, whatever a request body holds.
const maxDepth = 1 << 16

type formulaParser struct {
	in    string
	pos   int
	open  int // parentheses open at the cursor
	probs func(id string) (float64, error)
}

func (p *formulaParser) tooDeep() error {
	return fmt.Errorf("lineage: formula nested deeper than %d levels at offset %d", maxDepth, p.pos)
}

func (p *formulaParser) skipSpace() {
	for p.pos < len(p.in) {
		r, sz := utf8.DecodeRuneInString(p.in[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += sz
	}
}

// peekOp reports whether one of the given operator spellings starts at the
// cursor, consuming it when found.
func (p *formulaParser) acceptOp(ops ...string) bool {
	p.skipSpace()
	for _, op := range ops {
		if strings.HasPrefix(p.in[p.pos:], op) {
			p.pos += len(op)
			return true
		}
	}
	return false
}

// The parse methods return the subtree with its height in levels (a
// variable is 0).

func (p *formulaParser) parseOr() (*Expr, int, error) {
	left, h, err := p.parseAnd()
	if err != nil {
		return nil, 0, err
	}
	for p.acceptOp("∨", "|", "+") {
		right, hr, err := p.parseAnd()
		if err != nil {
			return nil, 0, err
		}
		if h = max(h, hr) + 1; h > maxDepth {
			return nil, 0, p.tooDeep()
		}
		left = Or(left, right)
	}
	return left, h, nil
}

func (p *formulaParser) parseAnd() (*Expr, int, error) {
	left, h, err := p.parseNot()
	if err != nil {
		return nil, 0, err
	}
	for p.acceptOp("∧", "&", "*") {
		right, hr, err := p.parseNot()
		if err != nil {
			return nil, 0, err
		}
		if h = max(h, hr) + 1; h > maxDepth {
			return nil, 0, p.tooDeep()
		}
		left = And(left, right)
	}
	return left, h, nil
}

func (p *formulaParser) parseNot() (*Expr, int, error) {
	nots := 0
	for p.acceptOp("¬", "!", "~") {
		nots++
	}
	e, h, err := p.parseAtom()
	if err != nil {
		return nil, 0, err
	}
	if h += nots; h > maxDepth {
		return nil, 0, p.tooDeep()
	}
	for ; nots > 0; nots-- {
		e = Not(e)
	}
	return e, h, nil
}

func (p *formulaParser) parseAtom() (*Expr, int, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, 0, fmt.Errorf("lineage: unexpected end of formula %q", p.in)
	}
	if p.in[p.pos] == '(' {
		if p.open++; p.open > maxDepth {
			return nil, 0, p.tooDeep()
		}
		p.pos++
		e, h, err := p.parseOr()
		if err != nil {
			return nil, 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, 0, fmt.Errorf("lineage: missing ')' at offset %d in %q", p.pos, p.in)
		}
		p.pos++
		p.open--
		return e, h, nil
	}
	start := p.pos
	for p.pos < len(p.in) {
		r, sz := utf8.DecodeRuneInString(p.in[p.pos:])
		if !isIdentRune(r) {
			break
		}
		p.pos += sz
	}
	if p.pos == start {
		return nil, 0, fmt.Errorf("lineage: expected identifier at offset %d in %q", start, p.in)
	}
	id := p.in[start:p.pos]
	if id == "null" {
		return nil, 0, fmt.Errorf("lineage: null is only allowed as the whole formula")
	}
	prob, err := p.probs(id)
	if err != nil {
		return nil, 0, fmt.Errorf("lineage: variable %q: %w", id, err)
	}
	return Var(id, prob), 0, nil
}
