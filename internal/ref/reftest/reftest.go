// Package reftest is the differential harness around the Def. 3 oracle
// (internal/ref): one generator of random catalogs and query trees, the
// paper's Fig. 1 fixtures, and one comparison. Every test that pins the
// production path — through the engine, the public tpset API, HTTP —
// draws its inputs here and hands its output to Check, so correctness is
// stated once, against the oracle, never between two executors.
package reftest

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/relation"
)

// Binding is how a generated catalog is bound to fact dictionaries.
type Binding int

// The three bindings a catalog can reach the evaluator in.
const (
	Unbound Binding = iota // no dictionary: every compare is on key strings
	Shared                 // one dictionary over all relations (ingest-aligned)
	Mixed                  // every other relation interned alone, the rest unbound
)

// Skew is how a generated relation spreads its tuples over its facts.
type Skew int

// The three tuples-per-fact distributions.
const (
	Uniform Skew = iota
	Zipf         // Zipfian (s = 1.3): a few long fact runs, a long tail of short ones
	Heavy        // the middle fact of the pool holds about two thirds of the tuples
)

// Shape describes a random catalog.
type Shape struct {
	Relations int // named r0, r1, …
	MaxTuples int // per relation, at least one
	Facts     int // size of each relation's fact pool
	// OffsetFacts shifts each relation's pool by half its size, so
	// consecutive relations share only part of their facts — long absent
	// runs, the run-skipping case.
	OffsetFacts bool
	// DisjointFacts shifts each relation's pool by its whole size, so
	// relation i lies entirely below relation i+1 in fact order.
	DisjointFacts bool
	Skew          Skew
	Binding       Binding
	// Sorted leaves the relations in canonical order (what AssumeSorted
	// needs); otherwise they stay in generation order.
	Sorted bool
}

// DB generates a catalog of duplicate-free relations over the single
// attribute "F". Per fact, intervals advance with gaps of 0–3 and lengths
// of 1–5, which exercises adjacency, containment and exact-boundary
// coincidences on a time domain small enough for the oracle. Base-tuple
// ids are unique across the catalog (the independence assumption).
func DB(rng *rand.Rand, sh Shape) map[string]*relation.Relation {
	db := make(map[string]*relation.Relation, sh.Relations)
	rels := make([]*relation.Relation, sh.Relations)
	for ri := range rels {
		name := fmt.Sprintf("r%d", ri)
		rel := relation.New(relation.NewSchema(name, "F"))
		base := 0
		switch {
		case sh.DisjointFacts:
			base = ri * sh.Facts
		case sh.OffsetFacts:
			base = ri * sh.Facts / 2
		}
		pick := func() int { return rng.Intn(sh.Facts) }
		switch sh.Skew {
		case Zipf:
			z := rand.NewZipf(rng, 1.3, 1, uint64(sh.Facts-1))
			pick = func() int { return int(z.Uint64()) }
		case Heavy:
			pick = func() int {
				if rng.Intn(3) > 0 {
					return sh.Facts / 2
				}
				return rng.Intn(sh.Facts)
			}
		}
		next := make(map[string]interval.Time)
		for i, n := 0, 1+rng.Intn(sh.MaxTuples); i < n; i++ {
			f := fmt.Sprintf("f%03d", base+pick())
			ts := next[f] + interval.Time(rng.Intn(4))
			te := ts + 1 + interval.Time(rng.Intn(5))
			next[f] = te
			rel.AddBase(relation.NewFact(f), fmt.Sprintf("%s_%d", name, i), ts, te, 0.05+0.9*rng.Float64())
		}
		rels[ri], db[name] = rel, rel
	}
	switch sh.Binding {
	case Shared:
		relation.InternAll(rels...)
	case Mixed:
		for ri := 0; ri < len(rels); ri += 2 {
			rels[ri].Intern()
		}
	}
	if sh.Sorted {
		for _, r := range rels {
			r.Sort()
		}
	}
	return db
}

// Tree generates a query tree with the given number of leaves over the
// named relations: random set operations, and a selection over about a
// quarter of the leaves. Relations may repeat (#P-hard queries included).
func Tree(rng *rand.Rand, names []string, leaves int) query.Node {
	if leaves <= 1 {
		var n query.Node = &query.Rel{Name: names[rng.Intn(len(names))]}
		if rng.Intn(4) == 0 {
			n = &query.Select{Attr: "F", Value: fmt.Sprintf("f%03d", rng.Intn(24)), Input: n}
		}
		return n
	}
	l := 1 + rng.Intn(leaves-1)
	return &query.SetOp{
		Op:    core.Op(rng.Intn(3)),
		Left:  Tree(rng, names, l),
		Right: Tree(rng, names, leaves-l),
	}
}

// Fig1 returns the paper's running example — the supermarket relations
// a (bought), b (ordered) and c (stock) of Fig. 1 — and the queries the
// paper evaluates over them (Figs. 1c, 3 and 6).
func Fig1() (db map[string]*relation.Relation, queries []string) {
	a := relation.New(relation.NewSchema("a", "Product"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	a.AddBase(relation.NewFact("chips"), "a2", 4, 7, 0.8)
	a.AddBase(relation.NewFact("dates"), "a3", 1, 3, 0.6)
	b := relation.New(relation.NewSchema("b", "Product"))
	b.AddBase(relation.NewFact("milk"), "b1", 5, 9, 0.6)
	b.AddBase(relation.NewFact("chips"), "b2", 3, 6, 0.9)
	c := relation.New(relation.NewSchema("c", "Product"))
	c.AddBase(relation.NewFact("milk"), "c1", 1, 4, 0.6)
	c.AddBase(relation.NewFact("milk"), "c2", 6, 8, 0.7)
	c.AddBase(relation.NewFact("chips"), "c3", 4, 5, 0.7)
	c.AddBase(relation.NewFact("chips"), "c4", 7, 9, 0.8)
	return map[string]*relation.Relation{"a": a, "b": b, "c": c}, []string{
		"c - (a | b)", "a | c", "a & c", "a - c",
		"sigma[Product='milk'](c) - sigma[Product='milk'](a)",
		"(a | c) - (a & c)",
	}
}

// Check fails the test unless got — the production result, tuples in the
// order the stream delivered them — is the oracle's answer for n over
// db: strictly ascending in canonical (fact, Ts, Te) order, hence
// duplicate-free, and equal to ref.Eval tuple for tuple in fact,
// interval, lineage (syntactic equivalence) and probability (1e-9).
// Probabilities are compared as they are, so a LazyProb result must be
// valuated (ComputeProbs) first.
func Check(tb testing.TB, ctx string, got *relation.Relation, n query.Node, db map[string]*relation.Relation) {
	tb.Helper()
	want, err := ref.Eval(n, db)
	if err != nil {
		tb.Fatalf("%s: oracle: %v", ctx, err)
	}
	for i := 1; i < got.Len(); i++ {
		if !relation.Less(&got.Tuples[i-1], &got.Tuples[i]) {
			tb.Fatalf("%s: stream out of canonical order at %d: %s then %s",
				ctx, i, got.Tuples[i-1], got.Tuples[i])
		}
	}
	if d := relation.Diff(got, want); d != "" {
		tb.Fatalf("%s: vs Def. 3 oracle: %s\ngot=%s\nwant=%s", ctx, d, got, want)
	}
}
