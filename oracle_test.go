package tpset_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
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

// TestPublicAPIMatchesOracle drives the differential harness through the
// public entry points: random query trees over random catalogs — interned
// or not, in generation order, as a library user assembles them — through
// Eval, EvalOptimized and EvalParallel at several budgets, each compared
// with the Def. 3 oracle (every third catalog holds its relations' facts
// at different times, the temporal run-skipping case); and Apply, sequential and partitioned, on the
// two-relation trees.
func TestPublicAPIMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
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
			"EvalOptimized":   func() (*tpset.Relation, error) { return tpset.EvalOptimized(tree, db) },
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
