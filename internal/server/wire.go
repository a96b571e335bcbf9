package server

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// wireEncoder is the one encoder of the tuple wire format (see
// codec.go): every response that carries tuples — the NDJSON stream,
// the POST /query body, GET /relations/{name} — is appended into buf by
// the methods below, with no reflection, no intermediate TupleJSON and
// no marginals map. The bytes are identical to what encoding/json with
// SetEscapeHTML(false) writes for the TupleJSON / RelationJSON /
// QueryResponse structs, which stay the decode side of the format;
// FuzzWireEncode holds the two together.
//
// buf accumulates output until the caller writes it; vps is per-tuple
// scratch, and head is the opening of the last row up to its lineage
// string — `{"fact":[…],"lineage":"` — kept with the fact it renders
// until the next snapshot, so that a run of rows of one fact (output is
// in fact order) escapes the fact once. Likewise the last te is kept
// with where its text lies in buf: a fact's windows abut, so a row's ts
// is usually the te just written, and is copied from there rather than
// formatted again. A warmed encoder appends a tuple without allocating.
//
// names, wire and texts are the encoder's view of the variable arena,
// of its escaped form (escapedNames: the same table unless some name
// needs escaping) and of the marginal-text table beside them, taken by
// snapshot once per batch or relation so that none is locked or
// counted per tuple: names and wire resolve every formula built before
// the snapshot, and texts holds the bytes appendJSONFloat already
// produced for a base tuple's marginal — the same probability is
// shipped with every output row that mentions the tuple, and copying
// those bytes costs a fraction of rendering it again.
type wireEncoder struct {
	buf  []byte
	vps  []lineage.VarProb // one formula's sorted marginals
	head []byte            // the last row's opening; empty: none rendered
	fact relation.Fact     // the fact head renders

	// te is the last row's te and buf[teAt:teEnd] its text; teEnd 0:
	// none since the last reset, which is the only way buf is emptied.
	te          int64
	teAt, teEnd int

	names []string
	wire  []string
	texts lineage.MarginalTexts
}

var wireEncoderPool = sync.Pool{New: func() any { return new(wireEncoder) }}

func getWireEncoder() *wireEncoder {
	e := wireEncoderPool.Get().(*wireEncoder)
	e.reset()
	return e
}

// reset empties buf, and with it drops the position of the last te's
// text: every truncation of buf goes through it.
func (e *wireEncoder) reset() {
	e.buf = e.buf[:0]
	e.teEnd = 0
}

// release returns the encoder to the pool; the pool holds no rows.
func (e *wireEncoder) release() {
	e.fact = nil
	wireEncoderPool.Put(e)
}

// snapshot readies the encoder for tuples whose lineage was built
// before the call; e.texts.Flush() afterwards hands the table the
// counts of the tuples encoded since.
func (e *wireEncoder) snapshot() {
	// A row's opening is reused within one batch or relation body, whose
	// rows are read-only while they are encoded.
	e.head = e.head[:0]
	e.names = lineage.VarNames()
	e.wire = escapedNames(e.names)
	e.texts = lineage.SnapshotMarginalTexts()
}

// wireView is the variable arena as a JSON string carries it: the
// name of variable id escaped as appendJSONString escapes it, without
// the quotes. Every name the CSV and PUT decoders admit reads as it is,
// and as long as every name in the arena does, the view is the arena's
// own snapshot — no second table, and one array for the encoder to
// read per variable. The first name that needs escaping gives the view
// a table of its own: one string header per variable, sharing the
// name's string where nothing changed. Like the arena the view is
// process-wide and append-only: a name is looked at once, by the first
// snapshot that covers it, and a published state is never rewritten,
// so it is read without a lock; growth appends past the length any
// reader holds, or moves to a new array.
var wireView struct {
	mu  sync.Mutex // serializes growth
	cur atomic.Pointer[nameView]
}

// nameView is one published state of wireView.
type nameView struct {
	esc     []string // nil while every name looked at reads as it is
	checked int      // arena names looked at
}

// escapedNames returns the escaped view of the arena snapshot names: a
// table that resolves every id names resolves. Formulas rendered
// through it with lineage.Expr.AppendString are the inside of their
// JSON string.
func escapedNames(names []string) []string {
	v := wireView.cur.Load()
	if v == nil || v.checked < len(names) {
		v = growWireView(names)
	}
	if v.esc == nil {
		return names
	}
	return v.esc
}

// growWireView looks at the names the view has not covered yet and
// publishes the state that covers names.
func growWireView(names []string) *nameView {
	wireView.mu.Lock()
	defer wireView.mu.Unlock()
	v := wireView.cur.Load()
	if v == nil {
		v = new(nameView)
	}
	if v.checked >= len(names) {
		return v
	}
	esc := v.esc
	var buf []byte
	for i := v.checked; i < len(names); i++ {
		name := names[i]
		if buf = appendJSONString(buf[:0], name); len(buf) != len(name)+2 { // escaping only lengthens
			if esc == nil {
				esc = append(make([]string, 0, len(names)), names[:i]...)
			}
			name = string(buf[1 : len(buf)-1])
		}
		if esc != nil {
			esc = append(esc, name)
		}
	}
	v = &nameView{esc: esc, checked: len(names)}
	wireView.cur.Store(v)
	return v
}

// marginal appends the marginal p of variable id as appendJSONFloat
// renders it: the table's bytes when it holds them for exactly p,
// otherwise formatted here and offered to the table, so cached bytes
// are by construction bytes appendJSONFloat wrote. Exponent forms
// (below 1e-6) are not offered.
func (e *wireEncoder) marginal(b []byte, id keys.VarID, p float64) ([]byte, bool) {
	if b, ok := e.texts.Append(b, id, p); ok {
		return b, true
	}
	start := len(b)
	b, ok := appendJSONFloat(b, p)
	if ok && p >= 1e-6 {
		e.texts.Offer(id, p, b[start:])
	}
	return b, ok
}

// tuple appends one TupleJSON object. JSON has no encoding for NaN or
// ±Inf: on a non-finite probability or marginal it returns an error and
// leaves buf as it was before the call, so the caller's framing stays
// valid. lam must have been built before the encoder's last snapshot.
func (e *wireEncoder) tuple(fact relation.Fact, lam *lineage.Expr, ts, te int64, p float64) error {
	start := len(e.buf)
	b := append(e.buf, e.factHead(fact)...)
	// The view's names are escaped and the connectives and parentheses
	// need no escaping, so the rendering is the string's content.
	b = lam.AppendString(b, e.wire)
	b = append(b, `","ts":`...)
	if e.teEnd > 0 && ts == e.te {
		b = append(b, b[e.teAt:e.teEnd]...)
	} else {
		b = strconv.AppendInt(b, ts, 10)
	}
	b = append(b, `,"te":`...)
	teAt := len(b)
	b = strconv.AppendInt(b, te, 10)
	teEnd := len(b)
	b = append(b, `,"p":`...)
	// A bare variable whose marginal is the tuple's own p needs no
	// varProbs, and its p is that marginal's text; anything else (a
	// real formula, or a lazily unvaluated tuple) ships explicit
	// marginals.
	bare := lam != nil && lam.Kind() == lineage.KindVar && p == lam.VarProb()
	var ok bool
	if bare {
		b, ok = e.marginal(b, lam.VarID(), p)
	} else {
		b, ok = appendJSONFloat(b, p)
	}
	if !ok {
		e.buf = b[:start]
		return fmt.Errorf("probability %v has no JSON encoding", p)
	}
	if lam != nil && !bare {
		// Sorted by the raw name, as encoding/json orders the map's keys;
		// only the output is escaped, because escaping can change the
		// order (a" sorts before a#, its escaped form a\" after it).
		e.vps = lam.AppendVarProbs(e.vps[:0], e.names)
		b = append(b, `,"varProbs":{`...)
		for i, vp := range e.vps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, e.wire[vp.ID]...)
			b = append(b, '"', ':')
			if b, ok = e.marginal(b, vp.ID, vp.Prob); !ok {
				e.buf = b[:start]
				return fmt.Errorf("marginal %v of variable %q has no JSON encoding", vp.Prob, vp.Name)
			}
		}
		b = append(b, '}')
	}
	// Only a row that stays in buf leaves its te behind: a refused one
	// is cut off above and keeps the previous row's, whose text lies
	// before the cut.
	e.buf = append(b, '}')
	e.te, e.teAt, e.teEnd = te, teAt, teEnd
	return nil
}

// factHead returns a row's opening up to its lineage string,
// `{"fact":[…],"lineage":"` (`{"fact":null,…` for a nil fact),
// rendering it only when fact differs from the previous row's.
func (e *wireEncoder) factHead(fact relation.Fact) []byte {
	if len(e.head) > 0 && (fact == nil) == (e.fact == nil) && slices.Equal(fact, e.fact) {
		return e.head
	}
	h := e.head[:0]
	if fact == nil {
		h = append(h, `{"fact":null`...)
	} else {
		h = append(h, `{"fact":[`...)
		for i, v := range fact {
			if i > 0 {
				h = append(h, ',')
			}
			h = appendJSONString(h, v)
		}
		h = append(h, ']')
	}
	e.head, e.fact = append(h, `,"lineage":"`...), fact
	return e.head
}

// batchLines appends the rows of b as NDJSON lines. It returns the
// number of rows appended; with an error that is the index of the row
// that could not be encoded, and buf ends after the line before it.
func (e *wireEncoder) batchLines(b *core.Batch) (int, error) {
	e.snapshot()
	defer e.texts.Flush()
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if err := e.tuple(t.Fact, t.Lineage, t.T.Ts, t.T.Te, t.Prob); err != nil {
			return i, err
		}
		e.buf = append(e.buf, '\n')
	}
	return len(b.Tuples), nil
}

// relation appends one RelationJSON object; version 0 omits the version
// field. It is relationHead, rows and relationTail over r's tuples, the
// three pieces the POST /query drain appends block by block.
func (e *wireEncoder) relation(r *relation.Relation, version uint64) error {
	e.relationHead(r.Schema, version)
	if err := e.rows(r.Tuples, 0); err != nil {
		return err
	}
	e.relationTail()
	return nil
}

// relationHead appends a RelationJSON object up to the opening bracket of
// its tuples array; version 0 omits the version field.
func (e *wireEncoder) relationHead(s relation.Schema, version uint64) {
	b := append(e.buf, `{"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"attrs":[`...)
	for i, a := range s.Attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a)
	}
	b = append(b, ']')
	if version != 0 {
		b = append(b, `,"version":`...)
		b = strconv.AppendUint(b, version, 10)
	}
	e.buf = append(b, `,"tuples":[`...)
}

// rows appends ts as elements of a tuples array that already holds n
// tuples. An error names the tuple by its index in the array.
func (e *wireEncoder) rows(ts []relation.Tuple, n int) error {
	e.snapshot()
	defer e.texts.Flush()
	for i := range ts {
		if n+i > 0 {
			e.buf = append(e.buf, ',')
		}
		t := &ts[i]
		if err := e.tuple(t.Fact, t.Lineage, t.T.Ts, t.T.Te, t.Prob); err != nil {
			return fmt.Errorf("tuple %d: %w", n+i, err)
		}
	}
	return nil
}

// relationTail closes what relationHead opened.
func (e *wireEncoder) relationTail() { e.buf = append(e.buf, "]}"...) }

// queryHead appends the POST /query body up to its result: the
// QueryResponse envelope fields before it. Inputs are small and written
// once per response, so they go through encoding/json.
func (e *wireEncoder) queryHead(res *QueryResult) error {
	b := append(e.buf, `{"query":`...)
	b = appendJSONString(b, res.Query)
	b = append(b, `,"complexity":`...)
	b = appendJSONString(b, res.Complexity)
	b = append(b, `,"inputs":`...)
	b, err := appendJSONValue(b, res.Inputs)
	if err != nil {
		return err
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, res.Cached)
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, res.ElapsedMicros, 10)
	e.buf = append(b, `,"result":`...)
	return nil
}

// queryTail appends what follows the result in the POST /query body:
// the trace, when the request asked for one, and the closing brace and
// newline.
func (e *wireEncoder) queryTail(res *QueryResult) error {
	if res.Trace != nil {
		e.buf = append(e.buf, `,"trace":`...)
		var err error
		if e.buf, err = appendJSONValue(e.buf, res.Trace); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "}\n"...)
	return nil
}

// appendJSONValue appends v as encodeJSON renders it, without the
// terminating newline.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	w := sliceWriter{dst}
	if err := encodeJSON(&w, v); err != nil {
		return dst, err
	}
	return w.b[:len(w.b)-1], nil
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries verbatim:
// everything from space up except the quote and the backslash (DEL
// included, as in encoding/json).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendJSONString appends src as a JSON string literal, escaping
// exactly as encoding/json does with HTML escaping off: quote and
// backslash, \b \f \n \r \t, other control bytes as \u00XX, invalid
// UTF-8 as the six bytes \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(dst []byte, src string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		c := src[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
