package query

import (
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/relation"
)

var _ core.Cursor = (*selectCursor)(nil)

func db() map[string]*relation.Relation {
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
	return map[string]*relation.Relation{"a": a, "b": b, "c": c}
}

// evaluate drains the plan BuildCursor compiles — the engine's sequential
// path (the engine itself cannot be imported from inside this package).
func evaluate(n Node, db map[string]*relation.Relation) (*relation.Relation, error) {
	c, err := BuildCursor(n, db, core.Options{})
	if err != nil {
		return nil, err
	}
	return core.Materialize(c), nil
}

func TestParsePrecedenceAndRendering(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"a | b", "(a ∪Tp b)"},
		{"a & b", "(a ∩Tp b)"},
		{"a - b", "(a −Tp b)"},
		{"c - (a | b)", "(c −Tp (a ∪Tp b))"},
		{"a | b & c", "(a ∪Tp (b ∩Tp c))"}, // & binds tighter
		{"a - b - c", "((a −Tp b) −Tp c)"}, // left assoc
		{"a union b intersect c", "(a ∪Tp (b ∩Tp c))"},
		{"a minus b", "(a −Tp b)"},
		{"(a | b) - c", "((a ∪Tp b) −Tp c)"},
		{"sigma[Product='milk'](c)", "σ[Product='milk'](c)"},
		{"sigma[Product='milk'](c) - a", "(σ[Product='milk'](c) −Tp a)"},
	}
	for _, tc := range cases {
		n, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := n.String(); got != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "a |", "| a", "a b", "(a", "a)", "sigma[x](a)", "sigma[x=](a)",
		"sigma[x='v'](", "a ! b", "'lit'", "a - 'x'", "sigma[x='unterminated](a)",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// TestParseBoundsThePlan stacks k selections over a union chain sized so
// that the plan PushDown makes of it — every selection copied
// onto every leaf — has exactly MaxNodes nodes: Parse accepts it, and
// refuses it with one more selection.
func TestParseBoundsThePlan(t *testing.T) {
	var size func(Node) int
	size = func(n Node) int {
		switch q := n.(type) {
		case *SetOp:
			return 1 + size(q.Left) + size(q.Right)
		case *Select:
			return 1 + size(q.Input)
		}
		return 1
	}
	pdb := map[string]*relation.Relation{"a": relation.New(relation.NewSchema("a", "P")), "b": relation.New(relation.NewSchema("b", "P"))}
	for _, k := range []int{1, 3, 7} {
		// k selections over a chain of m leaves plan as 2m-1 + k·m nodes.
		m := (MaxNodes + 1) / (k + 2)
		q := "a" + strings.Repeat(" | b", m-1)
		for i := 0; i < k; i++ {
			q = "sigma[P='v'](" + q + ")"
		}
		q += strings.Repeat(" | a", (MaxNodes-(2*m-1+k*m))/2)
		n, err := Parse(q)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := size(PushDown(n, pdb)); got > MaxNodes || got < MaxNodes-1 {
			t.Fatalf("k=%d: pushed-down plan has %d nodes, want the bound %d", k, got, MaxNodes)
		}
		if _, err := Parse("sigma[P='v'](" + q + ")"); err == nil {
			t.Fatalf("k=%d: one more selection accepted", k)
		}
	}
}

func TestRelationsAndNonRepeating(t *testing.T) {
	n := MustParse("c - (a | b)")
	if got := Relations(n); strings.Join(got, ",") != "a,b,c" {
		t.Errorf("relations: %v", got)
	}
	if !IsNonRepeating(n) || Classify(n) != PTime {
		t.Error("c - (a | b) is non-repeating")
	}
	rep := MustParse("(r1 | r2) - (r1 & r3)")
	if IsNonRepeating(rep) || Classify(rep) != SharpPHard {
		t.Error("the paper's §V-B repeating example must classify #P-hard")
	}
	if got := Relations(rep); strings.Join(got, ",") != "r1,r2,r3" {
		t.Errorf("dedup: %v", got)
	}
	if !strings.Contains(PTime.String(), "PTIME") || !strings.Contains(SharpPHard.String(), "#P") {
		t.Error("complexity rendering")
	}
}

func TestEvaluateFig1(t *testing.T) {
	out, err := evaluate(MustParse("c - (a | b)"), db())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("Fig. 1c has 5 tuples, got %d:\n%s", out.Len(), out)
	}
}

func TestEvaluateSelection(t *testing.T) {
	out, err := evaluate(MustParse("sigma[Product='milk'](c) - sigma[Product='milk'](a)"), db())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6: three accepted candidates.
	if out.Len() != 3 {
		t.Fatalf("want 3 tuples, got %d:\n%s", out.Len(), out)
	}
	for i := range out.Tuples {
		if out.Tuples[i].Fact.Key() != "milk" {
			t.Errorf("selection leaked fact %s", out.Tuples[i].Fact)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := evaluate(MustParse("nosuch - a"), db()); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown relation: %v", err)
	}
	if _, err := evaluate(MustParse("sigma[NoAttr='x'](a)"), db()); err == nil ||
		!strings.Contains(err.Error(), "NoAttr") {
		t.Errorf("unknown attribute: %v", err)
	}
}

func TestTheorem1OneOccurrence(t *testing.T) {
	// Non-repeating query ⇒ every output lineage is 1OF.
	out, err := evaluate(MustParse("(a | b) & c"), db())
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Tuples {
		if !out.Tuples[i].Lineage.IsOneOccurrence() {
			t.Errorf("non-1OF lineage from non-repeating query: %s", out.Tuples[i].Lineage)
		}
	}
	// Repeating query CAN produce repeated variables.
	out2, err := evaluate(MustParse("(a | c) - (a & c)"), db())
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for i := range out2.Tuples {
		if !out2.Tuples[i].Lineage.IsOneOccurrence() {
			seen = true
		}
	}
	if !seen {
		t.Error("repeating query produced only 1OF lineage — unexpected for this data")
	}
}

// TestRepeatingQueryProbabilities: even for the #P-hard repeating case, the
// Shannon evaluator must agree with possible-worlds enumeration on small
// data (the symmetric-difference query of §V-B).
func TestRepeatingQueryProbabilities(t *testing.T) {
	out, err := evaluate(MustParse("(a | c) - (a & c)"), db())
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Tuples {
		tu := &out.Tuples[i]
		exact := tu.Lineage.ProbPossibleWorlds()
		if diff := tu.Prob - exact; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("tuple %v: prob %v, possible-worlds %v", tu, tu.Prob, exact)
		}
	}
}

func TestSetOpErrIncompatibleSchemas(t *testing.T) {
	a := relation.New(relation.NewSchema("a", "X"))
	b := relation.New(relation.NewSchema("b", "X", "Y"))
	if _, err := core.Apply(core.OpUnion, a, b, core.Options{}); err == nil {
		t.Error("incompatible schemas must be rejected")
	}
}
