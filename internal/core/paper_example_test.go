package core_test

import (
	"math"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// The running example of the paper (Fig. 1): relations a (productsBought),
// b (productsOrdered) and c (productsInStock).
func paperRelations() (a, b, c *relation.Relation) {
	a = relation.New(relation.NewSchema("a", "Product"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	a.AddBase(relation.NewFact("chips"), "a2", 4, 7, 0.8)
	a.AddBase(relation.NewFact("dates"), "a3", 1, 3, 0.6)

	b = relation.New(relation.NewSchema("b", "Product"))
	b.AddBase(relation.NewFact("milk"), "b1", 5, 9, 0.6)
	b.AddBase(relation.NewFact("chips"), "b2", 3, 6, 0.9)

	c = relation.New(relation.NewSchema("c", "Product"))
	c.AddBase(relation.NewFact("milk"), "c1", 1, 4, 0.6)
	c.AddBase(relation.NewFact("milk"), "c2", 6, 8, 0.7)
	c.AddBase(relation.NewFact("chips"), "c3", 4, 5, 0.7)
	c.AddBase(relation.NewFact("chips"), "c4", 7, 9, 0.8)
	return a, b, c
}

type want struct {
	fact   string
	lam    string
	ts, te int64
	p      float64
}

func checkRelation(t *testing.T, got *relation.Relation, wants []want) {
	t.Helper()
	g := got.Clone()
	g.Sort()
	if len(g.Tuples) != len(wants) {
		t.Fatalf("got %d tuples, want %d:\n%s", len(g.Tuples), len(wants), got)
	}
	// wants must be listed in (fact, Ts) order.
	for i, w := range wants {
		tu := g.Tuples[i]
		if tu.Fact.Key() != w.fact || tu.T.Ts != w.ts || tu.T.Te != w.te {
			t.Errorf("tuple %d: got %s, want (%s, [%d,%d))", i, tu, w.fact, w.ts, w.te)
			continue
		}
		if got, want := tu.Lineage.String(), w.lam; got != want {
			t.Errorf("tuple %d (%s [%d,%d)): lineage %s, want %s", i, w.fact, w.ts, w.te, got, want)
		}
		if math.Abs(tu.Prob-w.p) > 1e-9 {
			t.Errorf("tuple %d (%s [%d,%d)): prob %v, want %v", i, w.fact, w.ts, w.te, tu.Prob, w.p)
		}
	}
	if err := got.ValidateDuplicateFree(); err != nil {
		t.Errorf("output not duplicate-free: %v", err)
	}
}

// TestPaperFig1Query reproduces the full query of Fig. 1b:
// Q = c −Tp (a ∪Tp b), with the result table of Fig. 1c.
func TestPaperFig1Query(t *testing.T) {
	a, b, c := paperRelations()
	ab, err := core.Apply(core.OpUnion, a, b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.Apply(core.OpExcept, c, ab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRelation(t, q, []want{
		{"chips", "c3∧¬(a2∨b2)", 4, 5, 0.7 * (1 - (1 - (1-0.8)*(1-0.9)))},
		{"chips", "c4", 7, 9, 0.8},
		{"milk", "c1", 1, 2, 0.6},
		{"milk", "c1∧¬a1", 2, 4, 0.42},
		{"milk", "c2∧¬(a1∨b1)", 6, 8, 0.196},
	})
}

// TestPaperFig3Union reproduces a ∪Tp c of Fig. 3.
func TestPaperFig3Union(t *testing.T) {
	a, _, c := paperRelations()
	got, err := core.Apply(core.OpUnion, a, c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRelation(t, got, []want{
		{"chips", "a2∨c3", 4, 5, 0.94},
		{"chips", "a2", 5, 7, 0.8},
		{"chips", "c4", 7, 9, 0.8},
		{"dates", "a3", 1, 3, 0.6},
		{"milk", "c1", 1, 2, 0.6},
		{"milk", "a1∨c1", 2, 4, 0.72},
		{"milk", "a1", 4, 6, 0.3},
		{"milk", "a1∨c2", 6, 8, 0.79},
		{"milk", "a1", 8, 10, 0.3},
	})
}

// TestPaperFig3Except reproduces a −Tp c of Fig. 3.
func TestPaperFig3Except(t *testing.T) {
	a, _, c := paperRelations()
	got, err := core.Apply(core.OpExcept, a, c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRelation(t, got, []want{
		{"chips", "a2∧¬c3", 4, 5, 0.8 * 0.3},
		{"chips", "a2", 5, 7, 0.8},
		{"dates", "a3", 1, 3, 0.6},
		{"milk", "a1∧¬c1", 2, 4, 0.12},
		{"milk", "a1", 4, 6, 0.3},
		{"milk", "a1∧¬c2", 6, 8, 0.09},
		{"milk", "a1", 8, 10, 0.3},
	})
}

// TestPaperFig3Intersect reproduces a ∩Tp c of Fig. 3.
func TestPaperFig3Intersect(t *testing.T) {
	a, _, c := paperRelations()
	got, err := core.Apply(core.OpIntersect, a, c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRelation(t, got, []want{
		{"chips", "a2∧c3", 4, 5, 0.56},
		{"milk", "a1∧c1", 2, 4, 0.18},
		{"milk", "a1∧c2", 6, 8, 0.21},
	})
}

// TestPaperExample3Windows reproduces the LAWA window sequence of Example 3
// / Fig. 6 for the 'milk' subsets of c (left) and a (right):
// five candidate windows with the recorded λr/λs combinations.
func TestPaperExample3Windows(t *testing.T) {
	a, _, c := paperRelations()
	milk := func(r *relation.Relation) *relation.Relation {
		out := relation.New(r.Schema)
		for _, tu := range r.Tuples {
			if tu.Fact.Key() == "milk" {
				out.Add(tu)
			}
		}
		return out
	}
	ws := core.Windows(milk(c), milk(a))
	type wwin struct {
		ts, te int64
		lr, ls string
	}
	wantWs := []wwin{
		{1, 2, "c1", "null"},
		{2, 4, "c1", "a1"},
		{4, 6, "null", "a1"},
		{6, 8, "c2", "a1"},
		{8, 10, "null", "a1"},
	}
	if len(ws) != len(wantWs) {
		t.Fatalf("got %d windows %v, want %d", len(ws), ws, len(wantWs))
	}
	for i, w := range wantWs {
		g := ws[i]
		if g.WinTs != w.ts || g.WinTe != w.te || g.LamR.String() != w.lr || g.LamS.String() != w.ls {
			t.Errorf("window %d: got %v, want ([%d,%d), %s, %s)", i, g, w.ts, w.te, w.lr, w.ls)
		}
	}
}

// TestPaperFig6ExceptMilk verifies the accepted/rejected candidates of
// Fig. 6: σF='milk'(c) −Tp σF='milk'(a).
func TestPaperFig6ExceptMilk(t *testing.T) {
	a, _, c := paperRelations()
	milkOnly := func(r *relation.Relation) *relation.Relation {
		out := relation.New(r.Schema)
		for _, tu := range r.Tuples {
			if tu.Fact.Key() == "milk" {
				out.Add(tu)
			}
		}
		return out
	}
	got, err := core.Apply(core.OpExcept, milkOnly(c), milkOnly(a), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRelation(t, got, []want{
		{"milk", "c1", 1, 2, 0.6},
		{"milk", "c1∧¬a1", 2, 4, 0.42},
		{"milk", "c2∧¬a1", 6, 8, 0.7 * 0.7},
	})
}

// TestExample2SelectedOutputs verifies the three highlighted tuples of
// Example 2 / Fig. 2 within a −Tp c.
func TestExample2SelectedOutputs(t *testing.T) {
	a, _, c := paperRelations()
	got, err := core.Apply(core.OpExcept, a, c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(fact string, ts int64) *relation.Tuple {
		for i := range got.Tuples {
			tu := &got.Tuples[i]
			if tu.Fact.Key() == fact && tu.T.Ts == ts {
				return tu
			}
		}
		t.Fatalf("missing output tuple (%s, Ts=%d) in %s", fact, ts, got)
		return nil
	}
	if tu := find("dates", 1); math.Abs(tu.Prob-0.6) > 1e-9 {
		t.Errorf("(dates): prob %v, want 0.6", tu.Prob)
	}
	if tu := find("chips", 4); math.Abs(tu.Prob-0.24) > 1e-9 || tu.Lineage.String() != "a2∧¬c3" {
		t.Errorf("(chips,4): got %s", tu)
	}
	if tu := find("milk", 6); math.Abs(tu.Prob-0.09) > 1e-9 || tu.Lineage.String() != "a1∧¬c2" {
		t.Errorf("(milk,6): got %s", tu)
	}
}

// TestLineageConcatTable verifies Table I on the nil/non-nil combinations.
func TestLineageConcatTable(t *testing.T) {
	x := lineage.Var("x", 0.5)
	y := lineage.Var("y", 0.25)
	if got := lineage.And(x, y).String(); got != "x∧y" {
		t.Errorf("and: %s", got)
	}
	if got := lineage.AndNot(x, nil); got != x {
		t.Errorf("andNot(x,null) = %s, want x", got)
	}
	if got := lineage.AndNot(x, y).String(); got != "x∧¬y" {
		t.Errorf("andNot: %s", got)
	}
	if got := lineage.Or(x, nil); got != x {
		t.Errorf("or(x,null) = %s, want x", got)
	}
	if got := lineage.Or(nil, y); got != y {
		t.Errorf("or(null,y) = %s, want y", got)
	}
	if got := lineage.Or(x, y).String(); got != "x∨y" {
		t.Errorf("or: %s", got)
	}
}
