package core_test

// Deep property tests: random nested TP set query trees — including
// repeating ones — evaluated by composing LAWA operations must match the
// composition of the per-snapshot oracle, and the outputs must satisfy
// the model invariants (duplicate-freeness, change preservation) at every
// level.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/relation"
)

// buildPoolRelation generates one duplicate-free relation whose base-tuple
// identifiers carry a globally unique prefix.
func buildPoolRelation(rng *rand.Rand, prefix string, maxTuples int) *relation.Relation {
	facts := []string{"alpha", "beta", "gamma"}
	rel := relation.New(relation.NewSchema(prefix, "F"))
	n := 1 + rng.Intn(maxTuples)
	cursors := make(map[string]int64)
	for i := 0; i < n; i++ {
		f := facts[rng.Intn(len(facts))]
		ts := cursors[f] + int64(rng.Intn(4))
		te := ts + 1 + int64(rng.Intn(5))
		cursors[f] = te
		rel.AddBase(relation.NewFact(f), fmt.Sprintf("%s_%d", prefix, i), ts, te, 0.05+0.9*rng.Float64())
	}
	return rel
}

// opTree is a random expression tree over leaf relations.
type opTree struct {
	op          core.Op
	left, right *opTree
	leaf        int // index into the relation pool (when left == nil)
}

func randTree(rng *rand.Rand, depth, pool int) *opTree {
	if depth == 0 || rng.Intn(3) == 0 {
		return &opTree{leaf: rng.Intn(pool)}
	}
	return &opTree{
		op:    core.Op(rng.Intn(3)),
		left:  randTree(rng, depth-1, pool),
		right: randTree(rng, depth-1, pool),
	}
}

func (t *opTree) leaves() map[int]int {
	m := map[int]int{}
	var walk func(*opTree)
	walk = func(n *opTree) {
		if n.left == nil {
			m[n.leaf]++
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t)
	return m
}

func evalLAWA(t *opTree, pool []*relation.Relation) (*relation.Relation, error) {
	if t.left == nil {
		return pool[t.leaf], nil
	}
	l, err := evalLAWA(t.left, pool)
	if err != nil {
		return nil, err
	}
	r, err := evalLAWA(t.right, pool)
	if err != nil {
		return nil, err
	}
	return core.Apply(t.op, l, r, core.Options{})
}

func evalOracle(t *opTree, pool []*relation.Relation) *relation.Relation {
	if t.left == nil {
		return pool[t.leaf]
	}
	return ref.Apply(t.op, evalOracle(t.left, pool), evalOracle(t.right, pool))
}

// checkChangePreservation verifies Def. 2's maximality half on a sorted
// output: no two adjacent same-fact tuples carry equivalent lineage.
func checkChangePreservation(t *testing.T, r *relation.Relation, ctx string) {
	t.Helper()
	c := r.Clone()
	c.Sort()
	for i := 1; i < len(c.Tuples); i++ {
		prev, cur := &c.Tuples[i-1], &c.Tuples[i]
		if prev.Key() == cur.Key() && prev.T.Te == cur.T.Ts &&
			lineage.EquivalentSyntactic(prev.Lineage, cur.Lineage) {
			t.Fatalf("%s: change preservation violated: %v then %v", ctx, prev, cur)
		}
	}
}

func TestRandomQueryTreesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		// A pool of three small relations; trees may reference one
		// relation several times (repeating queries). Base-tuple ids must
		// be globally unique across the pool — the model's independent-
		// variable assumption — so each relation gets its own id prefix.
		pool := make([]*relation.Relation, 3)
		for i := range pool {
			pool[i] = buildPoolRelation(rng, fmt.Sprintf("p%d_%d", trial, i), 6)
		}
		tree := randTree(rng, 3, len(pool))
		if tree.left == nil {
			continue
		}
		got, err := evalLAWA(tree, pool)
		if err != nil {
			t.Fatal(err)
		}
		want := evalOracle(tree, pool)
		if d := relation.Diff(got, want); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if err := got.ValidateDuplicateFree(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkChangePreservation(t, got, "tree output")

		// Theorem 1: when the tree is non-repeating, all lineage is 1OF.
		repeating := false
		for _, n := range tree.leaves() {
			if n > 1 {
				repeating = true
			}
		}
		if !repeating {
			for i := range got.Tuples {
				if !got.Tuples[i].Lineage.IsOneOccurrence() {
					t.Fatalf("trial %d: non-repeating tree yielded non-1OF lineage %s",
						trial, got.Tuples[i].Lineage)
				}
			}
		}
	}
}

// TestDeepChainStaysLinear exercises a long left-deep chain of unions —
// the lineage grows per tuple, but remains 1OF and linear to valuate.
func TestDeepChainStaysLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	acc := relation.New(relation.NewSchema("acc", "F"))
	acc.AddBase(relation.NewFact("x"), "seed", 0, 100, 0.5)
	for i := 0; i < 12; i++ {
		next := relation.New(relation.NewSchema("n", "F"))
		ts := int64(rng.Intn(80))
		next.AddBase(relation.NewFact("x"), string(rune('a'+i)), ts, ts+1+int64(rng.Intn(20)), 0.3)
		out, err := core.Apply(core.OpUnion, acc, next, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		acc = out
	}
	if err := acc.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	checkChangePreservation(t, acc, "deep chain")
	for i := range acc.Tuples {
		tu := &acc.Tuples[i]
		if !tu.Lineage.IsOneOccurrence() {
			t.Fatalf("chain lineage not 1OF: %s", tu.Lineage)
		}
		// Exact evaluation must agree with possible worlds on every tuple.
		if diff := tu.Prob - tu.Lineage.ProbPossibleWorlds(); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("prob mismatch on %v", tu)
		}
	}
}

// TestEdgeCases covers the boundary behaviours of the drivers.
func TestEdgeCases(t *testing.T) {
	empty := relation.New(relation.NewSchema("e", "F"))
	r := relation.New(relation.NewSchema("r", "F"))
	r.AddBase(relation.NewFact("x"), "r1", 1, 4, 0.5)

	type tc struct {
		name    string
		op      core.Op
		l, r    *relation.Relation
		wantLen int
	}
	cases := []tc{
		{"union empty empty", core.OpUnion, empty, empty, 0},
		{"union r empty", core.OpUnion, r, empty, 1},
		{"union empty r", core.OpUnion, empty, r, 1},
		{"intersect r empty", core.OpIntersect, r, empty, 0},
		{"intersect empty r", core.OpIntersect, empty, r, 0},
		{"except r empty", core.OpExcept, r, empty, 1},
		{"except empty r", core.OpExcept, empty, r, 0},
		{"except r r", core.OpExcept, r, r, 1}, // x∧¬x: kept, prob 0
	}
	for _, c := range cases {
		got, err := core.Apply(c.op, c.l, c.r, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Len() != c.wantLen {
			t.Errorf("%s: %d tuples, want %d\n%s", c.name, got.Len(), c.wantLen, got)
		}
	}

	// r −Tp r keeps the interval with lineage r1∧¬r1 ≡ false (prob 0):
	// Def. 3's filter is λr ≠ null; the probabilistic dimension zeroes it.
	selfExcept, err := core.Apply(core.OpExcept, r, r, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if selfExcept.Tuples[0].Prob != 0 {
		t.Errorf("r −Tp r probability: %v", selfExcept.Tuples[0].Prob)
	}

	// Identical single-point intervals.
	p1 := relation.New(relation.NewSchema("p1", "F"))
	p1.AddBase(relation.NewFact("x"), "p1", 5, 6, 0.5)
	p2 := relation.New(relation.NewSchema("p2", "F"))
	p2.AddBase(relation.NewFact("x"), "p2", 5, 6, 0.5)
	got, err := core.Apply(core.OpIntersect, p1, p2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuples[0].T.Ts != 5 || got.Tuples[0].T.Te != 6 {
		t.Fatalf("point intersect: %s", got)
	}
	// Adjacent intervals never intersect (half-open semantics).
	q1 := relation.New(relation.NewSchema("q1", "F"))
	q1.AddBase(relation.NewFact("x"), "q1", 1, 5, 0.5)
	q2 := relation.New(relation.NewSchema("q2", "F"))
	q2.AddBase(relation.NewFact("x"), "q2", 5, 9, 0.5)
	got, err = core.Apply(core.OpIntersect, q1, q2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("adjacent intervals intersected: %s", got)
	}
}

// TestValidateOption ensures bad input is rejected when requested.
func TestValidateOption(t *testing.T) {
	bad := relation.New(relation.NewSchema("bad", "F"))
	bad.AddBase(relation.NewFact("x"), "b1", 1, 5, 0.5)
	bad.AddBase(relation.NewFact("x"), "b2", 3, 7, 0.5) // overlap!
	ok := relation.New(relation.NewSchema("ok", "F"))
	if _, err := core.Apply(core.OpUnion, bad, ok, core.Options{Validate: true}); err == nil {
		t.Error("duplicate input accepted with Validate")
	}
	if _, err := core.Apply(core.OpUnion, ok, bad, core.Options{Validate: true}); err == nil {
		t.Error("duplicate right input accepted with Validate")
	}
	if _, err := core.Apply(core.OpUnion, bad, ok, core.Options{}); err != nil {
		t.Error("without Validate the driver must not check")
	}
}

// TestLazyProbOption: outputs carry zero probability until computed.
func TestLazyProbOption(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "F"))
	r.AddBase(relation.NewFact("x"), "r1", 1, 4, 0.5)
	s := relation.New(relation.NewSchema("s", "F"))
	s.AddBase(relation.NewFact("x"), "s1", 2, 6, 0.5)
	got, err := core.Apply(core.OpIntersect, r, s, core.Options{LazyProb: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[0].Prob != 0 {
		t.Error("lazy output valuated")
	}
	if got.Tuples[0].ComputeProb(); got.Tuples[0].Prob != 0.25 {
		t.Error("ComputeProb")
	}
}

// TestAssumeSorted: pre-sorted inputs run unchanged and uncloned.
func TestAssumeSorted(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "F"))
	r.AddBase(relation.NewFact("x"), "r1", 1, 4, 0.5)
	r.AddBase(relation.NewFact("y"), "r2", 2, 5, 0.5)
	s := relation.New(relation.NewSchema("s", "F"))
	s.AddBase(relation.NewFact("x"), "s1", 2, 6, 0.5)
	r.Sort()
	s.Sort()
	want, err := core.Apply(core.OpUnion, r, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Apply(core.OpUnion, r, s, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(got, want); d != "" {
		t.Fatal(d)
	}
}
