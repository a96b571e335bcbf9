package server

import (
	"fmt"
	"math"
	"strings"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// The JSON wire format for TP relations. One tuple is
//
//	{"fact": ["milk"], "lineage": "c1∧¬a1", "ts": 2, "te": 4, "p": 0.42,
//	 "varProbs": {"c1": 0.6, "a1": 0.3}}
//
// Lineage travels in its rendered form (see lineage.Expr.String) and is
// reconstructed through the lineage parser, so — unlike the CSV layout,
// which keeps derived formulas opaque — the JSON codec round-trips the
// full formula structure. varProbs carries the marginal probability of
// every variable occurring in the formula; it may be omitted when the
// lineage is a single bare variable, in which case the tuple's own p is
// the variable's marginal.
//
// The structs below define the format — the bytes are what encoding/json
// (HTML escaping off) writes for them — and are its decode side. The
// server's responses are written by the appender in wire.go, which
// produces those same bytes without going through the structs; the
// Encode* conversions remain for callers that want the struct form
// (tpset.MarshalRelationJSON, the bench experiments, tests).

// TupleJSON is the wire form of one TP tuple (F, λ, T, p).
type TupleJSON struct {
	Fact     []string           `json:"fact"`
	Lineage  string             `json:"lineage"`
	Ts       int64              `json:"ts"`
	Te       int64              `json:"te"`
	Prob     float64            `json:"p"`
	VarProbs map[string]float64 `json:"varProbs,omitempty"`
}

// RelationJSON is the wire form of a TP relation. Version is stamped by
// the catalog on responses and ignored on requests.
type RelationJSON struct {
	Name    string      `json:"name"`
	Attrs   []string    `json:"attrs"`
	Version uint64      `json:"version,omitempty"`
	Tuples  []TupleJSON `json:"tuples"`
}

// EncodeRelation converts a relation to its wire form. version 0 omits the
// version field.
func EncodeRelation(r *relation.Relation, version uint64) RelationJSON {
	rj := RelationJSON{
		Name:    r.Schema.Name,
		Attrs:   r.Schema.Attrs,
		Version: version,
		Tuples:  make([]TupleJSON, 0, len(r.Tuples)),
	}
	if rj.Attrs == nil {
		rj.Attrs = []string{}
	}
	for i := range r.Tuples {
		rj.Tuples = append(rj.Tuples, EncodeTuple(&r.Tuples[i]))
	}
	return rj
}

// EncodeTuple converts one tuple to its wire form: one NDJSON line of
// the streaming endpoint, one element of EncodeRelation.
func EncodeTuple(t *relation.Tuple) TupleJSON {
	var tj TupleJSON
	EncodeTupleInto(&tj, t, nil)
	return tj
}

// EncodeTupleInto fills tj with the wire form of t, reusing probs (when
// non-nil) as the VarProbs map, so a loop can serve many tuples from one
// TupleJSON and one marginals map (the rendered lineage string is still
// allocated per tuple). The encoded bytes are identical to EncodeTuple's
// (JSON maps serialize key-sorted). tj and probs must not be retained
// across calls by the consumer; pass probs nil to allocate a fresh map
// (EncodeTuple's escape-safe behaviour).
func EncodeTupleInto(tj *TupleJSON, t *relation.Tuple, probs map[string]float64) {
	tj.Fact = []string(t.Fact)
	tj.Lineage = t.Lineage.String()
	tj.Ts = t.T.Ts
	tj.Te = t.T.Te
	tj.Prob = t.Prob
	tj.VarProbs = nil
	encodeVarProbs(tj, t.Lineage, probs)
}

// EncodeBatchInto is EncodeTupleInto over row i of b.
func EncodeBatchInto(tj *TupleJSON, b *core.Batch, i int, probs map[string]float64) {
	EncodeTupleInto(tj, &b.Tuples[i], probs)
}

// encodeVarProbs attaches the formula's variable marginals to tj. A bare
// variable's marginal is recoverable from the tuple itself when the
// probability was valuated eagerly; anything else (a real formula, or a
// lazily unvaluated tuple) ships explicit marginals.
func encodeVarProbs(tj *TupleJSON, lam *lineage.Expr, probs map[string]float64) {
	if lam == nil || (lam.Kind() == lineage.KindVar && tj.Prob == lam.VarProb()) {
		return
	}
	if probs == nil {
		probs = make(map[string]float64)
	} else {
		clear(probs)
	}
	lam.VarProbs(probs)
	tj.VarProbs = probs
}

// DecodeRelation reconstructs a relation from its wire form. name, when
// non-empty, overrides rj.Name (the URL path segment wins over the body).
// Every lineage string runs through the lineage parser; variable marginals
// resolve through the tuple's varProbs map, falling back to the tuple's p
// for a single bare variable. The decoded relation is admitted
// (relation.Relation.Admit): bound, in canonical (fact, Ts, Te) order and
// checked for duplicate-freeness, whose error is the text a PUT of the
// same body answers with 422.
func DecodeRelation(rj RelationJSON, name string) (*relation.Relation, error) {
	rel, err := decodeRows(rj, name)
	if err != nil {
		return nil, err
	}
	if _, err := rel.Admit(); err != nil {
		return nil, err
	}
	return rel, nil
}

// decodeRows is DecodeRelation without the admission: the rows in body
// order, unbound. The PUT handler hands them to admitRelation, which
// admits them after its own checks, so a decode error (400) and a
// Def. 1 error (422) keep their statuses.
func decodeRows(rj RelationJSON, name string) (*relation.Relation, error) {
	if name == "" {
		name = rj.Name
	}
	if name == "" {
		return nil, fmt.Errorf("relation has no name")
	}
	if len(rj.Attrs) == 0 {
		return nil, fmt.Errorf("relation %q: needs at least one attribute", name)
	}
	rel := relation.New(relation.NewSchema(name, rj.Attrs...))
	if len(rj.Tuples) > 0 {
		rel.Tuples = make([]relation.Tuple, len(rj.Tuples)) // the count is known: no regrowth
	}
	for i, tj := range rj.Tuples {
		t, err := decodeTuple(tj, len(rj.Attrs))
		if err != nil {
			return nil, fmt.Errorf("relation %q: tuple %d: %w", name, i, err)
		}
		rel.Tuples[i] = t
	}
	return rel, nil
}

func decodeTuple(tj TupleJSON, nattrs int) (relation.Tuple, error) {
	var zero relation.Tuple
	if len(tj.Fact) != nattrs {
		return zero, fmt.Errorf("fact has %d values, schema has %d attributes", len(tj.Fact), nattrs)
	}
	for i, v := range tj.Fact {
		if v == "" {
			// Same admission rule as csvio.Read: an empty value would give
			// single-attribute facts the empty comparison key, which the
			// advancer cannot distinguish from its fresh-state sentinel.
			return zero, fmt.Errorf("empty fact value at attribute %d", i)
		}
	}
	if tj.Ts >= tj.Te {
		return zero, fmt.Errorf("empty interval [%d,%d)", tj.Ts, tj.Te)
	}
	if tj.Prob < 0 || tj.Prob > 1 || math.IsNaN(tj.Prob) {
		return zero, fmt.Errorf("probability %v outside [0,1]", tj.Prob)
	}
	bare := strings.TrimSpace(tj.Lineage)
	expr, err := lineage.Parse(tj.Lineage, func(id string) (float64, error) {
		if p, ok := tj.VarProbs[id]; ok {
			if p <= 0 || p > 1 || math.IsNaN(p) {
				return 0, fmt.Errorf("varProbs[%q] = %v outside (0,1]", id, p)
			}
			return p, nil
		}
		if id == bare {
			// Single bare variable: the tuple's p IS the marginal.
			if tj.Prob <= 0 {
				return 0, fmt.Errorf("variable %q needs a positive marginal (tuple p = %v and no varProbs entry)", id, tj.Prob)
			}
			return tj.Prob, nil
		}
		return 0, fmt.Errorf("no varProbs entry for variable %q", id)
	})
	if err != nil {
		return zero, fmt.Errorf("lineage %q: %w", tj.Lineage, err)
	}
	if expr == nil {
		return zero, fmt.Errorf("lineage %q: null lineage is not a valid tuple annotation", tj.Lineage)
	}
	t := relation.NewDerivedLazy(relation.NewFact(tj.Fact...), expr, interval.New(tj.Ts, tj.Te))
	t.Prob = tj.Prob
	return t, nil
}
