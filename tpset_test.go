package tpset_test

// Integration tests of the public API: end-to-end flows a library user
// would write, including the godoc examples.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/tpset/tpset"
)

func supermarket() (a, b, c *tpset.Relation) {
	a = tpset.NewRelation("a", "Product")
	a.AddBase(tpset.F("milk"), "a1", 2, 10, 0.3)
	a.AddBase(tpset.F("chips"), "a2", 4, 7, 0.8)
	a.AddBase(tpset.F("dates"), "a3", 1, 3, 0.6)
	b = tpset.NewRelation("b", "Product")
	b.AddBase(tpset.F("milk"), "b1", 5, 9, 0.6)
	b.AddBase(tpset.F("chips"), "b2", 3, 6, 0.9)
	c = tpset.NewRelation("c", "Product")
	c.AddBase(tpset.F("milk"), "c1", 1, 4, 0.6)
	c.AddBase(tpset.F("milk"), "c2", 6, 8, 0.7)
	c.AddBase(tpset.F("chips"), "c3", 4, 5, 0.7)
	c.AddBase(tpset.F("chips"), "c4", 7, 9, 0.8)
	return a, b, c
}

func TestPublicAPIFig1(t *testing.T) {
	a, b, c := supermarket()
	q := tpset.MustParseQuery("c - (a | b)")
	out, err := tpset.Eval(q, map[string]*tpset.Relation{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("Fig. 1c: %d tuples\n%s", out.Len(), out)
	}
	opt, err := tpset.EvalOptimized(q, map[string]*tpset.Relation{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Len() != out.Len() {
		t.Fatal("optimizer changed the result")
	}
}

func TestPublicAPISetOps(t *testing.T) {
	a, _, c := supermarket()
	u, err := tpset.Union(a, c)
	if err != nil {
		t.Fatal(err)
	}
	i, err := tpset.Intersect(a, c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tpset.Except(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 9 || i.Len() != 3 || e.Len() != 7 {
		t.Fatalf("Fig. 3 cardinalities: ∪=%d ∩=%d −=%d", u.Len(), i.Len(), e.Len())
	}
	for _, op := range []tpset.Op{tpset.OpUnion, tpset.OpIntersect, tpset.OpExcept} {
		if _, err := tpset.Apply(op, a, c, tpset.Options{Validate: true}); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
	}
}

func TestPublicAPILineage(t *testing.T) {
	x := tpset.NewVar("x", 0.5)
	y := tpset.NewVar("y", 0.4)
	e := tpset.AndNot(x, tpset.Or(y, nil))
	if e.String() != "x∧¬y" {
		t.Fatalf("lineage: %s", e)
	}
	if p := e.Prob(); math.Abs(p-0.3) > 1e-12 {
		t.Fatalf("prob: %v", p)
	}
	back, err := tpset.ParseLineage("x∧¬y", func(id string) (float64, error) {
		if id == "x" {
			return 0.5, nil
		}
		return 0.4, nil
	})
	if err != nil || back.String() != "x∧¬y" {
		t.Fatalf("parse: %v %v", back, err)
	}
	if null, err := tpset.ParseLineage("null", nil); err != nil || null != nil {
		t.Fatal("null lineage")
	}
}

// TestMarginalOutsideUnitIntervalIsRefused: a base tuple's marginal is
// checked where the variable is made — NaN included, which satisfies
// neither p <= 0 nor p > 1 and used to pass, only to fail a response
// mid-stream when the encoder met it.
func TestMarginalOutsideUnitIntervalIsRefused(t *testing.T) {
	refused := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "outside (0,1]") {
				t.Fatalf("%s: recovered %q, want a probability outside (0,1] panic", name, msg)
			}
		}()
		f()
	}
	for _, p := range []float64{math.NaN(), 0, -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		refused("NewVar", func() { tpset.NewVar("bad", p) })
		refused("AddBase", func() {
			tpset.NewRelation("r", "F").AddBase(tpset.F("x"), "bad", 1, 2, p)
		})
	}
	if tpset.NewVar("ok", 1).VarProb() != 1 || tpset.NewVar("ok", 5e-324).VarProb() != 5e-324 {
		t.Fatal("the ends of (0,1] are valid marginals")
	}
}

func TestPublicAPIProjectAndSelect(t *testing.T) {
	r := tpset.NewRelation("sales", "Product", "City")
	r.AddBase(tpset.F("milk", "zurich"), "t1", 1, 5, 0.5)
	r.AddBase(tpset.F("milk", "basel"), "t2", 3, 8, 0.4)
	sel, err := tpset.SelectEq(r, "City", "zurich")
	if err != nil || sel.Len() != 1 {
		t.Fatalf("select: %v %v", sel, err)
	}
	proj, err := tpset.Project(r, "Product")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 3 {
		t.Fatalf("projection fragments: %s", proj)
	}
	if err := proj.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICSV(t *testing.T) {
	a, _, _ := supermarket()
	var buf bytes.Buffer
	if err := tpset.WriteCSV(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := tpset.ReadCSV(strings.NewReader(buf.String()), "a")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != a.Len() {
		t.Fatalf("round trip: %d vs %d", back.Len(), a.Len())
	}
}

func TestPublicAPIWindowsAndStats(t *testing.T) {
	a, _, c := supermarket()
	ws := tpset.Windows(c, a)
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	st := tpset.ComputeStats(c)
	if st.Cardinality != 4 || st.NumFacts != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if f := tpset.OverlapFactor(a, c); f <= 0 || f > 1 {
		t.Fatalf("overlap factor: %v", f)
	}
	if !tpset.IsNonRepeating(tpset.MustParseQuery("a - b")) {
		t.Fatal("non-repeating")
	}
	if tpset.IsNonRepeating(tpset.MustParseQuery("a - a")) {
		t.Fatal("repeating")
	}
}

func TestPublicAPICoalesce(t *testing.T) {
	r := tpset.NewRelation("r", "F")
	lam := tpset.NewVar("x", 0.5)
	r.Tuples = append(r.Tuples,
		tpset.Tuple{Fact: tpset.F("a"), Lineage: lam, T: tpset.NewInterval(1, 3), Prob: 0.5},
		tpset.Tuple{Fact: tpset.F("a"), Lineage: lam, T: tpset.NewInterval(3, 6), Prob: 0.5},
	)
	if got := r.Coalesce(); got.Len() != 1 || got.Tuples[0].T != tpset.NewInterval(1, 6) {
		t.Fatalf("coalesce: %s", got)
	}
}

// TestMultiAttributePipeline runs a realistic end-to-end flow over a
// two-attribute schema: select → project → set operation → probabilities,
// verifying the pieces compose.
func TestMultiAttributePipeline(t *testing.T) {
	sales := tpset.NewRelation("sales", "Product", "City")
	sales.AddBase(tpset.F("milk", "zurich"), "s1", 1, 6, 0.6)
	sales.AddBase(tpset.F("milk", "basel"), "s2", 4, 9, 0.5)
	sales.AddBase(tpset.F("chips", "zurich"), "s3", 2, 5, 0.9)

	stock := tpset.NewRelation("stock", "Product")
	stock.AddBase(tpset.F("milk"), "t1", 0, 12, 0.8)
	stock.AddBase(tpset.F("chips"), "t2", 3, 4, 0.7)

	// Demand per product regardless of city: projection merges cities.
	demand, err := tpset.Project(sales, "Product")
	if err != nil {
		t.Fatal(err)
	}
	// Stocked but (possibly) not demanded.
	idle, err := tpset.Except(stock, demand)
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	idle.Sort()
	// Expected milk windows: [0,1) t1; [1,4) t1∧¬s1; [4,6) t1∧¬(s1∨s2);
	// [6,9) t1∧¬s2; [9,12) t1. Chips: [3,4) t2∧¬s3.
	if idle.Len() != 6 {
		t.Fatalf("idle stock: %s", idle)
	}
	var milk46 *tpset.Tuple
	for i := range idle.Tuples {
		if idle.Tuples[i].Fact.Key() == "milk" && idle.Tuples[i].T.Ts == 4 {
			milk46 = &idle.Tuples[i]
		}
	}
	if milk46 == nil || milk46.T.Te != 6 {
		t.Fatalf("missing milk [4,6): %s", idle)
	}
	if got, want := milk46.Prob, 0.8*(1-(1-(1-0.6)*(1-0.5))); math.Abs(got-want) > 1e-9 {
		t.Errorf("milk [4,6) prob %v, want %v", got, want)
	}
	// The projected lineage repeats across fragments, so this is exactly
	// a place where downstream lineage can leave 1OF — the probability
	// must still be exact (Shannon fallback).
	for i := range idle.Tuples {
		tu := &idle.Tuples[i]
		if diff := tu.Prob - tu.Lineage.ProbPossibleWorlds(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("tuple %v: prob diverges from possible worlds", tu)
		}
	}
}

// TestSimplifyIntegration: a repeating query's lineage shrinks back to 1OF
// via SimplifyLineage without changing probabilities.
func TestSimplifyIntegration(t *testing.T) {
	a, _, c := supermarket()
	out, err := tpset.Eval(tpset.MustParseQuery("(a | c) & a"),
		map[string]*tpset.Relation{"a": a, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Tuples {
		tu := &out.Tuples[i]
		s := tpset.SimplifyLineage(tu.Lineage)
		if s.Size() > tu.Lineage.Size() {
			t.Errorf("simplify grew %s", tu.Lineage)
		}
		if d := s.ProbPossibleWorlds() - tu.Lineage.ProbPossibleWorlds(); d > 1e-9 || d < -1e-9 {
			t.Errorf("simplify changed semantics of %s", tu.Lineage)
		}
	}
}
