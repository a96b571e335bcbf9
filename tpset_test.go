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

// TestPublicAPIProjectAndSelect keeps the name it had while the API also
// offered projection, which is gone; it checks the selection: σ keeps the
// tuples whose attribute holds the value, in canonical order and under
// the relation's name, and an unknown attribute is the plan's error,
// naming the attributes there are.
func TestPublicAPIProjectAndSelect(t *testing.T) {
	r := tpset.NewRelation("sales", "Product", "City")
	r.AddBase(tpset.F("milk", "zurich"), "t1", 1, 5, 0.5)
	r.AddBase(tpset.F("milk", "basel"), "t2", 3, 8, 0.4)
	r.AddBase(tpset.F("chips", "zurich"), "t3", 2, 6, 0.9)
	sel, err := tpset.SelectEq(r, "City", "zurich")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 2 || sel.Schema.Name != "sales" ||
		sel.Tuples[0].Lineage.String() != "t3" || sel.Tuples[1].Lineage.String() != "t1" {
		t.Fatalf("σ[City=zurich](sales): want t3 then t1 in relation sales, got %s", sel)
	}
	_, err = tpset.SelectEq(r, "Nope", "x")
	if want := `query: relation "sales" has no attribute "Nope" (have Product, City)`; err == nil || err.Error() != want {
		t.Fatalf("unknown attribute: got %v, want %s", err, want)
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
// two-attribute schema: select → set operation → probabilities, once
// non-repeating (1OF lineage) and once repeating, where the lineage
// leaves 1OF and the probability must still be exact.
func TestMultiAttributePipeline(t *testing.T) {
	sales := tpset.NewRelation("sales", "Product", "City")
	sales.AddBase(tpset.F("milk", "zurich"), "s1", 1, 6, 0.6)
	sales.AddBase(tpset.F("milk", "basel"), "s2", 4, 9, 0.5)
	sales.AddBase(tpset.F("chips", "zurich"), "s3", 2, 5, 0.9)

	stock := tpset.NewRelation("stock", "Product", "City")
	stock.AddBase(tpset.F("milk", "zurich"), "t1", 0, 12, 0.8)
	stock.AddBase(tpset.F("milk", "basel"), "t3", 2, 7, 0.4)
	stock.AddBase(tpset.F("chips", "zurich"), "t2", 3, 4, 0.7)
	db := map[string]*tpset.Relation{"sales": sales, "stock": stock}

	exact := func(q string, out *tpset.Relation) {
		t.Helper()
		for i := range out.Tuples {
			tu := &out.Tuples[i]
			if diff := tu.Prob - tu.Lineage.ProbPossibleWorlds(); diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: tuple %v: prob diverges from possible worlds", q, tu)
			}
		}
	}

	// Stocked in Zurich but (possibly) not sold there.
	q := "sigma[City='zurich'](stock - sales)"
	idle, err := tpset.Eval(tpset.MustParseQuery(q), db)
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
	// chips,zurich: [3,4) t2∧¬s3. milk,zurich: [0,1) t1; [1,6) t1∧¬s1;
	// [6,12) t1.
	want := []struct {
		fact   string
		ts, te tpset.Time
		lam    string
		p      float64
	}{
		{"chips,zurich", 3, 4, "t2∧¬s3", 0.7 * (1 - 0.9)},
		{"milk,zurich", 0, 1, "t1", 0.8},
		{"milk,zurich", 1, 6, "t1∧¬s1", 0.8 * (1 - 0.6)},
		{"milk,zurich", 6, 12, "t1", 0.8},
	}
	if idle.Len() != len(want) {
		t.Fatalf("%s: %s", q, idle)
	}
	for i, w := range want {
		tu := idle.Tuples[i]
		if strings.Join(tu.Fact, ",") != w.fact || tu.T != tpset.NewInterval(w.ts, w.te) ||
			tu.Lineage.String() != w.lam || math.Abs(tu.Prob-w.p) > 1e-9 {
			t.Errorf("%s: tuple %d is %v, want %+v", q, i, tu, w)
		}
	}
	exact(q, idle)

	// Held in Zurich whether sold or not: the lineage repeats t1 (t2),
	// which is exactly where it leaves 1OF; each fragment is worth its
	// stock variable alone.
	q = "sigma[City='zurich']((stock - sales) | (stock & sales))"
	if tpset.IsNonRepeating(tpset.MustParseQuery(q)) {
		t.Fatalf("%s reads as non-repeating", q)
	}
	held, err := tpset.Eval(tpset.MustParseQuery(q), db)
	if err != nil {
		t.Fatal(err)
	}
	if held.Len() != 4 {
		t.Fatalf("%s: %s", q, held)
	}
	for i := range held.Tuples {
		tu := &held.Tuples[i]
		if p := map[string]float64{"chips": 0.7, "milk": 0.8}[tu.Fact[0]]; math.Abs(tu.Prob-p) > 1e-9 {
			t.Errorf("%s: tuple %v: prob %v, want %v", q, tu, tu.Prob, p)
		}
	}
	exact(q, held)
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
