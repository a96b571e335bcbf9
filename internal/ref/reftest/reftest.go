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
	"github.com/tpset/tpset/internal/keys"
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
	// OffsetTime starts relation i's per-fact chains i chain-spans after
	// time 0 (a chain-span: what the relation's average fact run covers),
	// so a fact two relations share is mostly held at different times —
	// long stretches with no counterpart, the temporal run-skipping case —
	// while above-average runs still reach into the next relation's range.
	OffsetTime bool
	Skew       Skew
	Binding    Binding
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
		n := 1 + rng.Intn(sh.MaxTuples)
		start := interval.Time(0)
		if sh.OffsetTime {
			start = interval.Time(ri * (n/sh.Facts + 1) * 4) // gap + length average 4.5
		}
		for i := 0; i < n; i++ {
			f := fmt.Sprintf("f%03d", base+pick())
			if _, ok := next[f]; !ok {
				next[f] = start
			}
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

// TimeSkipCase is one hand-built catalog of relations r, s and t.
type TimeSkipCase struct {
	Name string
	DB   map[string]*relation.Relation
}

// TimeSkipCases returns the fixed shapes of temporal run skipping — two
// relations that hold a fact at different times — that a random draw
// hits only by luck, and the queries to run over each of them. Relations
// are built in canonical order, so they can be run with and without
// AssumeSorted.
func TimeSkipCases() (cases []TimeSkipCase, queries []string) {
	type row = [3]int64 // fact number, ts, te
	rel := func(name string, rows ...row) *relation.Relation {
		r := relation.New(relation.NewSchema(name, "F"))
		for i, row := range rows {
			r.AddBase(relation.NewFact(fmt.Sprintf("f%03d", row[0])), fmt.Sprintf("%s_%d", name, i), row[1], row[2], 0.5)
		}
		return r
	}
	chain := func(fact, from, n int64) []row { // n adjacent unit intervals
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{fact, from + int64(i), from + int64(i) + 1}
		}
		return rows
	}
	queries = []string{
		"r & s", "s & r", "r - s", "s - r", "r | s",
		// the skipped side is computed, or a selection over a leaf
		"(s | t) & r", "r & (s | t)", "r - (s | t)", "r - (s - t)",
		"sigma[F='f001'](s) & r", "r - sigma[F='f001'](s)",
		// both sides computed, over leaves the inner sweeps skip in
		"(r | t) - (s & t)", "(s | t) - (r & t)",
	}
	block := int64(core.BatchSize)
	cases = []TimeSkipCase{
		{ // every end point of one side is a start point of the other: nothing overlaps
			Name: "adjacent",
			DB: map[string]*relation.Relation{
				"r": rel("r", row{1, 5, 10}, row{1, 20, 25}),
				"s": rel("s", row{1, 0, 5}, row{1, 10, 20}, row{1, 25, 30}),
				"t": rel("t", row{1, 10, 12}, row{2, 0, 3}),
			},
		},
		{ // the tuple a skip lands on starts before the point it was skipped to
			Name: "lands-inside",
			DB: map[string]*relation.Relation{
				"r": rel("r", row{1, 12, 15}, row{1, 40, 42}, row{2, 0, 9}),
				"s": rel("s", row{1, 0, 3}, row{1, 4, 13}, row{1, 14, 41}, row{2, 9, 10}),
				"t": rel("t", row{1, 13, 14}, row{3, 0, 1}),
			},
		},
		{ // s is over before r starts, in the last fact: the skip runs into end-of-stream
			Name: "end-of-stream",
			DB: map[string]*relation.Relation{
				"r": rel("r", row{0, 0, 2}, row{1, 50, 60}),
				"s": rel("s", append([]row{{0, 1, 3}}, chain(1, 0, 40)...)...),
				"t": rel("t", row{1, 45, 50}),
			},
		},
		{ // one fact (the Fig. 7 shape): two chains that drift apart and meet again
			Name: "single-fact",
			DB: map[string]*relation.Relation{
				"r": rel("r", append(chain(1, 100, 30), chain(1, 400, 5)...)...),
				"s": rel("s", append(append(chain(1, 0, 102), chain(1, 200, 150)...), chain(1, 402, 100)...)...),
				"t": rel("t", chain(1, 90, 20)...),
			},
		},
		{ // the skipped run is exactly the scan's first block; the rest of the fact lies past r's first tuple
			Name: "block-boundary",
			DB: map[string]*relation.Relation{
				"r": rel("r", row{1, block, block + 6}, row{1, block + 103, block + 106}),
				"s": rel("s", append(chain(1, 0, block), chain(1, block+100, 10)...)...),
				"t": rel("t", row{0, 0, 1}, row{1, block + 2, block + 4}),
			},
		},
		{ // whole runs whose spans touch (Te == Ts, half-open: no overlap) are
			// skipped from the index; in f003 the spans meet and the rows decide
			Name: "spans-touch",
			DB: map[string]*relation.Relation{
				"r": rel("r", append(append(chain(1, 0, 10), row{2, 4, 9}), row{3, 0, 5}, row{3, 7, 10})...),
				"s": rel("s", append(append(chain(1, 10, 5), chain(2, 0, 4)...), row{3, 5, 7}, row{3, 10, 12})...),
				"t": rel("t", row{1, 9, 11}, row{3, 6, 8}),
			},
		},
		viewCutMidRun(rel, chain),
	}
	return cases, queries
}

// viewCutMidRun is the case whose r is a zero-copy view (relation.Slice)
// that starts inside its parent's run of f001 and ends inside its run of
// f002: the view's index keeps the parent runs' spans, which start before
// the view's first row and end after its last. s lies inside those spans
// but outside the view's rows — before its first f001 row, and after its
// last f002 row — so a decision that trusted the span as the view's own
// would skip or keep the wrong rows. All three relations share one
// dictionary, so the view reaches the plan as itself.
func viewCutMidRun(rel func(string, ...[3]int64) *relation.Relation, chain func(fact, from, n int64) [][3]int64) TimeSkipCase {
	parent := rel("r", append(chain(1, 0, 20), chain(2, 0, 20)...)...)
	s := rel("s", [3]int64{1, 0, 5}, [3]int64{1, 19, 25}, [3]int64{2, 15, 18})
	t := rel("t", [3]int64{1, 3, 7}, [3]int64{2, 11, 16})
	relation.InternAll(parent, s, t)
	parent.Runs() // the view derives its index from the parent's
	return TimeSkipCase{Name: "view-cut-mid-run", DB: map[string]*relation.Relation{"r": parent.Slice(5, 32), "s": s, "t": t}}
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

// CheckBinding fails the test unless rel is bound and its fid column
// names, row for row, the row's fact in rel's dictionary: the binding a
// scan hands out with every block. relation.Diff compares rows only, so
// a restore or admission that scrambles the column passes it and is
// caught here.
func CheckBinding(tb testing.TB, ctx string, rel *relation.Relation) {
	tb.Helper()
	d, fid := rel.Dict(), rel.FidCol()
	if d == nil {
		tb.Fatalf("%s: relation %q (%d tuples) is not bound", ctx, rel.Schema.Name, rel.Len())
	}
	for i, id := range fid {
		if id < 0 || id >= int64(d.Len()) || d.Key(keys.FactID(id)) != rel.Tuples[i].Fact.Key() {
			tb.Fatalf("%s: relation %q row %d holds fact %s, its id %d names another", ctx, rel.Schema.Name, i, rel.Tuples[i].Fact, id)
		}
	}
}
