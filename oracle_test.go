package tpset_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// leafOp reports whether tree is one set operation over two named
// relations — what Apply evaluates — and names them.
func leafOp(tree query.Node) (op tpset.Op, left, right string, ok bool) {
	so, ok := tree.(*query.SetOp)
	if !ok {
		return 0, "", "", false
	}
	l, lok := so.Left.(*query.Rel)
	r, rok := so.Right.(*query.Rel)
	if !lok || !rok {
		return 0, "", "", false
	}
	return so.Op, l.Name, r.Name, true
}

// selectAbove returns n with a selection σ[F='f…'] over its root set
// operation and over about a third of the inner ones, or nil when n has
// no set operation. reftest.Tree puts selections over leaves only, so
// these are the selections Eval's push-down has to move.
func selectAbove(rng *rand.Rand, n query.Node, root bool) query.Node {
	so, ok := n.(*query.SetOp)
	if !ok {
		if root {
			return nil
		}
		return n
	}
	var out query.Node = &query.SetOp{Op: so.Op, Left: selectAbove(rng, so.Left, false), Right: selectAbove(rng, so.Right, false)}
	if root || rng.Intn(3) == 0 {
		out = &query.Select{Attr: "F", Value: fmt.Sprintf("f%03d", rng.Intn(24)), Input: out}
	}
	return out
}

// TestPublicAPIMatchesOracle drives the differential harness through the
// public entry points: random query trees over random catalogs — interned
// or not, in generation order, as a library user assembles them — through
// Eval and EvalParallel at several budgets, each compared with the Def. 3
// oracle (every third catalog holds its relations' facts at different
// times, the temporal run-skipping case); the same trees with selections
// above set operations, which Eval pushes down before it plans (drawn
// from a second rng, so the trees and catalogs stay those of the first);
// and Apply, sequential and partitioned, on the two-relation trees.
func TestPublicAPIMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	srng := rand.New(rand.NewSource(9501))
	pushed := 0
	for trial := 0; trial < 60; trial++ {
		sh := reftest.Shape{Relations: 2 + rng.Intn(3), MaxTuples: 120, Facts: 24,
			OffsetFacts: trial%2 == 0, OffsetTime: trial%3 == 1, Binding: reftest.Binding(trial % 3)}
		if trial%10 == 9 {
			sh.MaxTuples, sh.Facts = 6000, 64 // large enough to partition at the default thresholds
		}
		db := reftest.DB(rng, sh)
		tree := reftest.Tree(rng, query.DBKeys(db), 1+rng.Intn(4))
		evals := map[string]func() (*tpset.Relation, error){
			"Eval":            func() (*tpset.Relation, error) { return tpset.Eval(tree, db) },
			"EvalParallel(1)": func() (*tpset.Relation, error) { return tpset.EvalParallel(tree, db, 1) },
			"EvalParallel(8)": func() (*tpset.Relation, error) { return tpset.EvalParallel(tree, db, 8) },
		}
		if op, l, r, ok := leafOp(tree); ok {
			for _, p := range []int{1, 4} {
				p := p
				evals[fmt.Sprintf("Apply(Parallelism %d)", p)] = func() (*tpset.Relation, error) {
					return tpset.Apply(op, db[l], db[r], tpset.Options{Parallelism: p, Validate: true})
				}
			}
		}
		for name, eval := range evals {
			got, err := eval()
			if err != nil {
				t.Fatalf("trial %d (%s) %s: %v", trial, tree, name, err)
			}
			reftest.Check(t, fmt.Sprintf("trial %d (%s) %s", trial, tree, name), got, tree, db)
		}
		sel := selectAbove(srng, tree, true)
		if sel == nil {
			continue
		}
		if query.PushDown(sel, db).String() != sel.String() {
			pushed++
		}
		for name, eval := range map[string]func() (*tpset.Relation, error){
			"Eval":            func() (*tpset.Relation, error) { return tpset.Eval(sel, db) },
			"EvalParallel(1)": func() (*tpset.Relation, error) { return tpset.EvalParallel(sel, db, 1) },
			"EvalParallel(8)": func() (*tpset.Relation, error) { return tpset.EvalParallel(sel, db, 8) },
		} {
			got, err := eval()
			if err != nil {
				t.Fatalf("trial %d (%s) %s: %v", trial, sel, name, err)
			}
			reftest.Check(t, fmt.Sprintf("trial %d (%s) %s", trial, sel, name), got, sel, db)
		}
	}
	if pushed < 20 {
		t.Fatalf("push-down moved a selection in %d trials; the σ-above trees do not reach it", pushed)
	}
}

// twoAttrDB is a catalog of two-attribute relations built from a
// reftest catalog: fact fNNN becomes (uA, uB) with A = NNN mod 4 and
// B = NNN div 4, one value alphabet for both positions, and relation ri
// names its attributes (X, Y), (Y, X) or (P, Q) by i mod 3 — the same
// position named alike, swapped, or otherwise.
func twoAttrDB(rng *rand.Rand, relations int) map[string]*tpset.Relation {
	names := [][]string{{"X", "Y"}, {"Y", "X"}, {"P", "Q"}}
	db := reftest.DB(rng, reftest.Shape{Relations: relations, MaxTuples: 120, Facts: 12})
	out := make(map[string]*tpset.Relation, len(db))
	for name, r := range db {
		var i int
		fmt.Sscanf(name, "r%d", &i)
		w := tpset.NewRelation(name, names[i%3]...)
		for _, tp := range r.Tuples {
			var f int
			fmt.Sscanf(tp.Fact[0], "f%d", &f)
			tp.Fact = tpset.F(fmt.Sprintf("u%d", f%4), fmt.Sprintf("u%d", f/4))
			w.Add(tp)
		}
		out[name] = w
	}
	return out
}

// attrTree is a random query over db in which every node may carry a
// selection on either attribute of its output — its leftmost relation's.
func attrTree(rng *rand.Rand, db map[string]*tpset.Relation, leaves int) (query.Node, string) {
	var n query.Node
	var first string
	if leaves <= 1 {
		names := query.DBKeys(db)
		first = names[rng.Intn(len(names))]
		n = &query.Rel{Name: first}
	} else {
		l := 1 + rng.Intn(leaves-1)
		left, f := attrTree(rng, db, l)
		right, _ := attrTree(rng, db, leaves-l)
		n, first = &query.SetOp{Op: tpset.Op(rng.Intn(3)), Left: left, Right: right}, f
	}
	if rng.Intn(2) == 0 {
		attrs := db[first].Schema.Attrs
		n = &query.Select{Attr: attrs[rng.Intn(len(attrs))], Value: fmt.Sprintf("u%d", rng.Intn(3)), Input: n}
	}
	return n, first
}

// TestPublicAPIPushDownAcrossAttributeNames: a set operation matches
// facts by position and names its output after its left input, while a
// selection names an attribute; Eval's push-down must select the same
// position in every input however the inputs name it. The paper-sized
// case first — a(X,Y) and b(Y,X) both hold (v,w), so σ[X='v'](a ∪Tp b)
// is (v,w) with lineage a1∨b1, and b named (P,Q) changes nothing — then
// random trees over relations named alike, swapped and otherwise,
// through Eval and EvalParallel(1) and (8), against the oracle.
func TestPublicAPIPushDownAcrossAttributeNames(t *testing.T) {
	a := tpset.NewRelation("a", "X", "Y")
	a.AddBase(tpset.F("v", "w"), "a1", 1, 5, 0.5)
	for _, battrs := range [][]string{{"Y", "X"}, {"P", "Q"}} {
		b := tpset.NewRelation("b", battrs...)
		b.AddBase(tpset.F("v", "w"), "b1", 1, 5, 0.4)
		db := map[string]*tpset.Relation{"a": a, "b": b}
		q := tpset.MustParseQuery("sigma[X='v'](a | b)")
		got, err := tpset.Eval(q, db)
		if err != nil {
			t.Fatalf("b%v: %v", battrs, err)
		}
		if got.Len() != 1 || got.Tuples[0].Lineage.String() != "a1∨b1" || math.Abs(got.Tuples[0].Prob-0.7) > 1e-12 {
			t.Fatalf("b%v: %s = %v, want (v,w) with lineage a1∨b1, p 0.7", battrs, q, got)
		}
		reftest.Check(t, fmt.Sprintf("b%v: %s", battrs, q), got, q, db)
	}

	rng := rand.New(rand.NewSource(96))
	caught := 0
	for trial := 0; trial < 80; trial++ {
		db := twoAttrDB(rng, 2+rng.Intn(3))
		tree, _ := attrTree(rng, db, 2+rng.Intn(4))
		pushed := query.PushDown(tree, db).String()
		if byName, err := tpset.Eval(pushByName(tree), db); err != nil {
			caught++
		} else if want, _ := ref.Eval(tree, db); relation.Diff(byName, want) != "" {
			caught++
		}
		for name, eval := range map[string]func() (*tpset.Relation, error){
			"Eval":            func() (*tpset.Relation, error) { return tpset.Eval(tree, db) },
			"EvalParallel(1)": func() (*tpset.Relation, error) { return tpset.EvalParallel(tree, db, 1) },
			"EvalParallel(8)": func() (*tpset.Relation, error) { return tpset.EvalParallel(tree, db, 8) },
		} {
			ctx := fmt.Sprintf("trial %d (%s, planned as %s) %s", trial, tree, pushed, name)
			got, err := eval()
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			reftest.Check(t, ctx, got, tree, db)
		}
	}
	if caught < 10 {
		t.Fatalf("pushing selections down by name went wrong in only %d trials; the trees do not reach the case", caught)
	}
}

// pushByName pushes every selection to the leaves under its own name,
// whatever each leaf calls that position: the rewrite that is wrong when
// set-operation inputs name their attributes differently.
func pushByName(n query.Node) query.Node {
	var push func(n query.Node, sels []*query.Select) query.Node
	push = func(n query.Node, sels []*query.Select) query.Node {
		switch q := n.(type) {
		case *query.Select:
			return push(q.Input, append(sels[:len(sels):len(sels)], q))
		case *query.SetOp:
			return &query.SetOp{Op: q.Op, Left: push(q.Left, sels), Right: push(q.Right, sels)}
		}
		for _, s := range sels {
			n = &query.Select{Attr: s.Attr, Value: s.Value, Input: n}
		}
		return n
	}
	return push(n, nil)
}

// rows renders r's tuples in the order r holds them.
func rows(r *tpset.Relation) []string {
	out := make([]string, r.Len())
	for i := range r.Tuples {
		out[i] = r.Tuples[i].String()
	}
	return out
}

// TestSelectEqIsTheSelectPlan: SelectEq over a relation in generation
// order and bound to no dictionary returns, tuple for tuple, what Eval
// returns for sigma[F='v'](r) — the oracle's answer, bound, under r's
// name — and leaves r as it was. (TestPublicAPIProjectAndSelect pins the
// unknown-attribute error.)
func TestSelectEqIsTheSelectPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		sh := reftest.Shape{Relations: 1, MaxTuples: 200, Facts: 12}
		if trial == 7 {
			sh.MaxTuples, sh.Facts = 6000, 64 // large enough to partition at the default thresholds
		}
		db := reftest.DB(rng, sh)
		r := db["r0"]
		before := rows(r)
		v := fmt.Sprintf("f%03d", rng.Intn(sh.Facts))
		q := tpset.MustParseQuery("sigma[F='" + v + "'](r0)")
		ctx := fmt.Sprintf("trial %d %s", trial, q)
		got, err := tpset.SelectEq(r, "F", v)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want, err := tpset.Eval(q, db)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		reftest.Check(t, ctx, got, q, db)
		if g, w := rows(got), rows(want); got.Schema.Name != want.Schema.Name || !slices.Equal(g, w) {
			t.Fatalf("%s: SelectEq %s %q, Eval %s %q", ctx, got.Schema.Name, g, want.Schema.Name, w)
		}
		if got.Len() > 0 && (got.Dict() == nil || len(got.FidCol()) != got.Len()) {
			t.Fatalf("%s: result of %d tuples is not bound to a dictionary", ctx, got.Len())
		}
		if r.Dict() != nil || !slices.Equal(rows(r), before) {
			t.Fatalf("%s: SelectEq changed its input", ctx)
		}
	}
}

// TestSelectEqCopiesTheSelectedRowsOnce pins what SelectEq allocates
// over an unsorted 20K-row relation, a quarter of whose rows it keeps
// (Synthetic deals rows round-robin over 4 facts): the plan copies the
// selected rows once, at their size, and sorts that copy in place. Bound
// to its own dictionary the relation took 1.53 MB when the selection's
// cut was copied again (relation.SortedCopy) and takes ≈0.66 MB; bound to
// none it took 1.81 MB (cut, Clone, InternAll, Sort) and takes ≈0.74 MB.
// The ceiling is the least of five calls, so a collection that empties
// the block pool mid-call does not count.
func TestSelectEqCopiesTheSelectedRowsOnce(t *testing.T) {
	const ceiling = 1 << 20
	bound := datagen.Synthetic(datagen.SyntheticConfig{Name: "r", NumTuples: 20000, NumFacts: 4, MaxLen: 5, MaxGap: 2, Seed: 7})
	unbound := relation.New(bound.Schema)
	unbound.Tuples = slices.Clone(bound.Tuples)
	for _, r := range []*relation.Relation{bound, unbound} {
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := tpset.SelectEq(r, "Fact", "f000001")
			runtime.ReadMemStats(&after)
			if err != nil || out.Len() != 5000 {
				t.Fatalf("SelectEq: %d tuples, %v; want 5000", out.Len(), err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("bound %v: %d bytes", r.Dict() != nil, least)
		if least > ceiling {
			t.Fatalf("SelectEq over %d unsorted tuples (bound %v) allocated %d bytes, ceiling %d", r.Len(), r.Dict() != nil, least, ceiling)
		}
	}
}

// TestPublicAPIFig1MatchesOracle evaluates the paper's own queries over
// the Fig. 1 relations.
func TestPublicAPIFig1MatchesOracle(t *testing.T) {
	db, queries := reftest.Fig1()
	for _, src := range queries {
		q := tpset.MustParseQuery(src)
		got, err := tpset.Eval(q, db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		reftest.Check(t, src, got, q, db)
	}
}

// TestPublicAPITimeSkipCasesMatchOracle evaluates the fixed shapes of
// temporal run skipping through Eval and, for the two-relation queries,
// through Apply — sequential and partitioned, AssumeSorted off and on.
func TestPublicAPITimeSkipCasesMatchOracle(t *testing.T) {
	cases, queries := reftest.TimeSkipCases()
	for _, tc := range cases {
		for _, src := range queries {
			q := tpset.MustParseQuery(src)
			got, err := tpset.Eval(q, tc.DB)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.Name, src, err)
			}
			reftest.Check(t, tc.Name+": "+src, got, q, tc.DB)
			op, l, r, ok := leafOp(q)
			if !ok {
				continue
			}
			for _, opts := range []tpset.Options{{Parallelism: 1}, {Parallelism: 1, AssumeSorted: true}, {Parallelism: 4, Validate: true}, {Parallelism: 4, AssumeSorted: true}} {
				ctx := fmt.Sprintf("%s: %s Apply %+v", tc.Name, src, opts)
				got, err := tpset.Apply(op, tc.DB[l], tc.DB[r], opts)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				reftest.Check(t, ctx, got, q, tc.DB)
			}
		}
	}
}

// TestApplyAssumeSortedBindsForeignLeaves is the public-level pin on the
// AssumeSorted contract: sorted inputs that share no dictionary — one
// frozen on its own, one unbound — are accepted at every budget, never
// written — each keeps its dictionary and its column storage — and the
// result comes back equal to the oracle and bound to one dictionary like
// any other.
func TestApplyAssumeSortedBindsForeignLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 12; trial++ {
		sh := reftest.Shape{Relations: 2, MaxTuples: 150, Facts: 24, OffsetFacts: trial%2 == 0, OffsetTime: trial%3 == 1, Sorted: true}
		if trial%4 == 3 {
			sh.MaxTuples, sh.Facts = 6000, 64 // large enough to partition at the default thresholds
		}
		db := reftest.DB(rng, sh)
		r, s := db["r0"], db["r1"]
		dict := r.Intern()
		col := r.FidCol()
		r.Freeze() // a write to r panics
		for _, op := range []tpset.Op{tpset.OpUnion, tpset.OpIntersect, tpset.OpExcept} {
			tree := &query.SetOp{Op: op, Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "r1"}}
			for _, p := range []int{1, 4} {
				ctx := fmt.Sprintf("trial %d %s Parallelism=%d", trial, tree, p)
				got, err := tpset.Apply(op, r, s, tpset.Options{AssumeSorted: true, Parallelism: p})
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				reftest.Check(t, ctx, got, tree, db)
				if got.Len() > 0 && (got.Dict() == nil || len(got.FidCol()) != got.Len()) {
					t.Fatalf("%s: result of %d tuples is not bound to one dictionary", ctx, got.Len())
				}
			}
		}
		if r.Dict() != dict || &r.FidCol()[0] != &col[0] || s.Dict() != nil || s.FidCol() != nil {
			t.Fatalf("trial %d: Apply re-bound its inputs", trial)
		}
	}
}
