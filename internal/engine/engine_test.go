package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

var allOps = []core.Op{core.OpUnion, core.OpIntersect, core.OpExcept}

// randomPair generates two unsorted, un-interned relations r0 and r1
// (multi-fact, so partitioning actually scatters work) and the database
// holding them.
func randomPair(rng *rand.Rand, maxTuples, facts int) (r, s *relation.Relation, db map[string]*relation.Relation) {
	db = reftest.DB(rng, reftest.Shape{Relations: 2, MaxTuples: maxTuples, Facts: facts})
	return db["r0"], db["r1"], db
}

// pairPlan is "r0 op r1", the tree the oracle evaluates for Apply(op, r0, r1).
func pairPlan(op core.Op) query.Node {
	return &query.SetOp{Op: op, Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "r1"}}
}

// mustIdentical asserts got is tuple-for-tuple identical to want: same
// schema, same order, same facts, same intervals, same rendered lineage
// and bit-identical probabilities — the "Apply equals core.Apply"
// contract, asserted only after one side has been checked against the
// oracle.
func mustIdentical(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Schema.Name != want.Schema.Name {
		t.Fatalf("%s: schema name %q vs %q", label, got.Schema.Name, want.Schema.Name)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: cardinality %d vs %d\ngot=%s\nwant=%s", label, got.Len(), want.Len(), got, want)
	}
	for i := range want.Tuples {
		g, w := &got.Tuples[i], &want.Tuples[i]
		if !g.Fact.Equal(w.Fact) || g.T != w.T || g.Lineage.String() != w.Lineage.String() || g.Prob != w.Prob {
			t.Fatalf("%s: tuple %d: got %s, want %s", label, i, g, w)
		}
	}
}

// TestApplyMatchesOracle checks the two-relation drivers — the sharded
// engine.Apply and the sequential core.Apply — against the oracle on
// randomized pairs, ≥ 100 per operation, and against each other bit for
// bit.
func TestApplyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := engine.New(engine.Config{Workers: 4, MinPartitionSize: 1})
	for trial := 0; trial < 150; trial++ {
		r, s, db := randomPair(rng, 60, 1+rng.Intn(12))
		for _, op := range allOps {
			ctx := fmt.Sprintf("trial %d %v", trial, op)
			seq, err := core.Apply(op, r, s, core.Options{})
			if err != nil {
				t.Fatalf("%s: sequential: %v", ctx, err)
			}
			reftest.Check(t, ctx+" core.Apply", seq, pairPlan(op), db)
			got, err := e.Apply(op, r, s, core.Options{})
			if err != nil {
				t.Fatalf("%s: parallel: %v", ctx, err)
			}
			mustIdentical(t, ctx, got, seq)
		}
	}
}

// TestDeterminismAcrossWorkerCounts asserts identical output across
// Workers = 1, 2, 8 and across repeated runs with the same configuration.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	r, s, db := randomPair(rand.New(rand.NewSource(11)), 400, 23)
	for _, op := range allOps {
		var first *relation.Relation
		for _, workers := range []int{1, 2, 8} {
			e := engine.New(engine.Config{Workers: workers, MinPartitionSize: 1})
			for run := 0; run < 3; run++ {
				got, err := e.Apply(op, r, s, core.Options{})
				if err != nil {
					t.Fatalf("%v workers=%d run=%d: %v", op, workers, run, err)
				}
				if first == nil {
					first = got
					reftest.Check(t, op.String(), got, pairPlan(op), db)
				}
				mustIdentical(t, fmt.Sprintf("%v workers=%d run=%d", op, workers, run), got, first)
			}
		}
	}
}

// TestApplyOptionsRespected checks LazyProb, Validate and AssumeSorted on
// the sharded path.
func TestApplyOptionsRespected(t *testing.T) {
	r, s, db := randomPair(rand.New(rand.NewSource(13)), 200, 9)
	e := engine.New(engine.Config{Workers: 4, MinPartitionSize: 1})

	lazy, err := e.Apply(core.OpUnion, r, s, core.Options{LazyProb: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lazy.Tuples {
		if lazy.Tuples[i].Prob != 0 {
			t.Fatalf("LazyProb: tuple %d has prob %v, want 0", i, lazy.Tuples[i].Prob)
		}
	}
	lazy.ComputeProbs()
	reftest.Check(t, "LazyProb", lazy, pairPlan(core.OpUnion), db)

	valid, err := e.Apply(core.OpUnion, r, s, core.Options{Validate: true})
	if err != nil {
		t.Fatalf("Validate over valid inputs: %v", err)
	}
	reftest.Check(t, "Validate", valid, pairPlan(core.OpUnion), db)
	bad := r.Clone()
	bad.AddBase(bad.Tuples[0].Fact, "dup", bad.Tuples[0].T.Ts, bad.Tuples[0].T.Te, 0.5)
	if _, err := e.Apply(core.OpUnion, bad, s, core.Options{Validate: true}); err == nil {
		t.Fatal("Validate over duplicated input: want error, got nil")
	}

	rs, ss := r.Clone(), s.Clone()
	rs.Sort()
	ss.Sort()
	got, err := e.Apply(core.OpExcept, rs, ss, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	reftest.Check(t, "AssumeSorted", got, pairPlan(core.OpExcept), db)

	if _, err := e.Apply(core.Op(9), r, s, core.Options{}); err == nil {
		t.Fatal("unknown operation: want error, got nil")
	}
	wide := relation.New(relation.NewSchema("wide", "A", "B"))
	if _, err := e.Apply(core.OpUnion, r, wide, core.Options{}); err == nil {
		t.Fatal("incompatible schemas: want error, got nil")
	}
}

// TestEvalCursorQueries runs fixed query shapes — nested, repeating, with
// a selection — through the sharded plan, and pins plan-time errors.
func TestEvalCursorQueries(t *testing.T) {
	db := reftest.DB(rand.New(rand.NewSource(19)), reftest.Shape{Relations: 4, MaxTuples: 120, Facts: 8})
	e := engine.New(engine.Config{Workers: 4, MinPartitionSize: 1})
	for _, src := range []string{
		"r0 | r1",
		"(r0 | r1) & r2",
		"((r0 | r1) & r2) - r3",
		"(r0 - r1) | (r2 - r3)",
		"(r0 & r1) | (r0 & r2)", // repeating
		"sigma[F='f003'](r0) | r1",
	} {
		q := query.MustParse(src)
		got, err := e.EvalCursor(q, db, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		reftest.Check(t, src, got, q, db)
	}
	if _, err := e.EvalCursor(query.MustParse("r0 | nosuch"), db, core.Options{}); err == nil {
		t.Fatal("unknown relation: want error, got nil")
	}
}
