package query

import (
	"fmt"
	"strings"
	"unicode"

	"github.com/tpset/tpset/internal/core"
)

// Parse parses the surface syntax of TP set queries:
//
//	query    = term { ("|" | "union") term } .
//	term     = factor { ("&" | "intersect" | "-" | "except") factor } .
//	factor   = ident | "(" query ")" | "sigma" "[" ident "=" value "]" "(" query ")" .
//	value    = "'" chars "'" | ident .
//
// "|", "&" and "-" are ∪Tp, ∩Tp and −Tp. "&" and "-" associate left and
// bind tighter than "|", mirroring conventional set-expression precedence;
// parentheses override. Example: the paper's Fig. 1 query is
//
//	c - (a | b)
func Parse(input string) (Node, error) {
	p := &parser{lex: lexer{input: input}}
	p.tok = p.lex.next()
	n, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("query: unexpected %q after complete query", p.peek().text)
	}
	return n, nil
}

// MaxNodes bounds a query before any plan is built: the nodes of its
// plan — operators, relation references, and each selection once per
// relation reference below it, as PushDown distributes it —
// and, separately, how deep its parentheses nest. Building a plan costs
// about 125 KB per operator (one pooled block per advancer side), so a
// plan at the bound allocates at most 64 MB, and every result's lineage
// nests far below the lineage parser's bound, so a result can always be
// PUT back. Parse refuses a query past it without reading the rest of
// the input.
const MaxNodes = 512

// MustParse is Parse panicking on error; intended for tests and constants.
func MustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// IsIdent reports whether s can name a relation in the surface grammar: a
// non-empty run of letters, digits, underscores and (non-leading) dots
// that is not a reserved word. The query service validates catalog names
// with this, so every admitted relation is actually referenceable from a
// query ("my-rel" would lex as "my - rel", and "union" is an operator).
func IsIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || (r == '.' && i > 0) {
			continue
		}
		return false
	}
	switch strings.ToLower(s) {
	case "union", "intersect", "except", "minus", "sigma":
		return false
	}
	return true
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokOp            // | & -
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokEquals
	tokValue // quoted literal
	tokEOF
	tokErr
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer hands out the tokens of input one at a time, so a query the
// parser refuses part-way is never tokenized past that point. At the end
// of input it keeps returning tokEOF, and after an error the same tokErr.
type lexer struct {
	input string
	i     int
}

func (l *lexer) next() token {
	in := l.input
	for l.i < len(in) && unicode.IsSpace(rune(in[l.i])) {
		l.i++
	}
	start := l.i
	if start == len(in) {
		return token{tokEOF, "", start}
	}
	c := rune(in[start])
	var kind tokKind
	switch {
	case c == '(':
		kind = tokLParen
	case c == ')':
		kind = tokRParen
	case c == '[':
		kind = tokLBracket
	case c == ']':
		kind = tokRBracket
	case c == '=':
		kind = tokEquals
	case c == '|' || c == '&' || c == '-':
		kind = tokOp
	case c == '\'':
		j := strings.IndexByte(in[start+1:], '\'')
		if j < 0 {
			return token{tokErr, "unterminated string literal", start}
		}
		l.i = start + 1 + j + 1
		return token{tokValue, in[start+1 : start+1+j], start}
	case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_':
		j := start
		for j < len(in) {
			r := rune(in[j])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '.' {
				break
			}
			j++
		}
		l.i = j
		word := in[start:j]
		switch strings.ToLower(word) {
		case "union":
			return token{tokOp, "|", start}
		case "intersect":
			return token{tokOp, "&", start}
		case "except", "minus":
			return token{tokOp, "-", start}
		}
		return token{tokIdent, word, start}
	default:
		return token{tokErr, fmt.Sprintf("unexpected character %q", c), start}
	}
	l.i = start + 1
	return token{kind, in[start:l.i], start}
}

type parser struct {
	lex    lexer
	tok    token // the next token, not yet consumed
	nodes  int   // plan nodes read, counted as MaxNodes counts them
	leaves int   // relation references read
	depth  int   // parentheses open around the current token
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	p.tok = p.lex.next()
	return t
}

func (p *parser) atEnd() bool { return p.peek().kind == tokEOF }

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("query: expected %s at offset %d, found %q", what, t.pos, t.text)
	}
	return t, nil
}

// count charges n plan nodes against MaxNodes.
func (p *parser) count(n int) error {
	if p.nodes += n; p.nodes > MaxNodes {
		return fmt.Errorf("query: plan of more than %d operators, relation references and pushed-down selections", MaxNodes)
	}
	return nil
}

// open enters one level of parentheses, refusing nesting past MaxNodes;
// the caller leaves it (p.depth--) at the matching ')'. Parentheses are
// the parser's only recursion, so this also bounds its stack.
func (p *parser) open() error {
	if p.depth++; p.depth > MaxNodes {
		return fmt.Errorf("query: parentheses nested deeper than %d", MaxNodes)
	}
	return nil
}

// parseQuery handles the lowest-precedence operator, union.
func (p *parser) parseQuery() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && p.peek().text == "|" {
		p.next()
		if err := p.count(1); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Op: opFromText("|"), Left: left, Right: right}
	}
	return left, nil
}

// parseTerm handles intersection and difference (equal precedence,
// left-associative).
func (p *parser) parseTerm() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "&" || p.peek().text == "-") {
		op := p.next().text
		if err := p.count(1); err != nil {
			return nil, err
		}
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Op: opFromText(op), Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseFactor() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokErr:
		return nil, fmt.Errorf("query: %s at offset %d", t.text, t.pos)
	case tokLParen:
		if err := p.open(); err != nil {
			return nil, err
		}
		n, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		p.depth--
		return n, nil
	case tokIdent:
		if strings.EqualFold(t.text, "sigma") {
			return p.parseSelect()
		}
		p.leaves++
		if err := p.count(1); err != nil {
			return nil, err
		}
		return &Rel{Name: t.text}, nil
	default:
		return nil, fmt.Errorf("query: expected relation, '(' or sigma at offset %d, found %q", t.pos, t.text)
	}
}

// parseSelect parses sigma[attr='value'](query).
func (p *parser) parseSelect() (Node, error) {
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return nil, err
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEquals, "'='"); err != nil {
		return nil, err
	}
	val := p.next()
	if val.kind != tokValue && val.kind != tokIdent {
		return nil, fmt.Errorf("query: expected value at offset %d, found %q", val.pos, val.text)
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	if err := p.open(); err != nil {
		return nil, err
	}
	leaves := p.leaves
	in, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	p.depth--
	if err := p.count(p.leaves - leaves); err != nil {
		return nil, err
	}
	return &Select{Attr: attr.text, Value: val.text, Input: in}, nil
}

func opFromText(s string) core.Op {
	switch s {
	case "|":
		return core.OpUnion
	case "&":
		return core.OpIntersect
	default:
		return core.OpExcept
	}
}
