package relops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

func sample() *relation.Relation {
	r := relation.New(relation.NewSchema("sales", "Product", "City"))
	r.AddBase(relation.NewFact("milk", "zurich"), "t1", 1, 5, 0.5)
	r.AddBase(relation.NewFact("milk", "basel"), "t2", 3, 8, 0.4)
	r.AddBase(relation.NewFact("chips", "zurich"), "t3", 2, 6, 0.9)
	return r
}

func TestSelectEq(t *testing.T) {
	got, err := SelectEq(sample(), "City", "zurich")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("selected %d tuples", got.Len())
	}
	for i := range got.Tuples {
		if got.Tuples[i].Fact[1] != "zurich" {
			t.Errorf("leaked %v", got.Tuples[i])
		}
	}
	if _, err := SelectEq(sample(), "Nope", "x"); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestRestrict(t *testing.T) {
	got := Restrict(sample(), func(tu *relation.Tuple) bool { return tu.Prob > 0.45 })
	if got.Len() != 2 {
		t.Fatalf("restricted to %d", got.Len())
	}
}

// TestProjectMergesFacts: projecting onto Product merges the two 'milk'
// tuples; the overlap region [3,5) carries the disjunction t1∨t2.
func TestProjectMergesFacts(t *testing.T) {
	got, err := Project(sample(), "Product")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.ValidateDuplicateFree(); err != nil {
		t.Fatalf("projection broke duplicate-freeness: %v", err)
	}
	got.Sort()
	type want struct {
		fact   string
		ts, te int64
		lam    string
	}
	wants := []want{
		{"chips", 2, 6, "t3"},
		{"milk", 1, 3, "t1"},
		{"milk", 3, 5, "t1∨t2"},
		{"milk", 5, 8, "t2"},
	}
	if got.Len() != len(wants) {
		t.Fatalf("got %d tuples:\n%s", got.Len(), got)
	}
	for i, w := range wants {
		tu := got.Tuples[i]
		if tu.Fact.Key() != w.fact || tu.T.Ts != w.ts || tu.T.Te != w.te || tu.Lineage.String() != w.lam {
			t.Errorf("tuple %d: got %v, want %+v", i, tu, w)
		}
	}
	// Probability of the merged fragment: 1-(1-0.5)(1-0.4) = 0.7.
	if p := got.Tuples[2].Prob; math.Abs(p-0.7) > 1e-12 {
		t.Errorf("merged prob %v", p)
	}
}

// TestProjectChangePreservation: fragments with identical contributor sets
// re-merge into maximal intervals.
func TestProjectChangePreservation(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "A", "B"))
	// Same projected fact 'x', adjacent intervals, same single contributor
	// after projection boundary events — merging applies only where the
	// lineage stays equivalent, so the two base tuples stay separate
	// (distinct ids), but a tuple fragmented by a transient contributor
	// whose lineage returns must not merge across the different middle.
	r.AddBase(relation.NewFact("x", "p"), "u1", 0, 10, 0.5)
	r.AddBase(relation.NewFact("x", "q"), "u2", 4, 6, 0.5)
	got, err := Project(r, "A")
	if err != nil {
		t.Fatal(err)
	}
	got.Sort()
	wants := []string{"u1", "u1∨u2", "u1"}
	if got.Len() != 3 {
		t.Fatalf("fragments: %s", got)
	}
	for i, w := range wants {
		if got.Tuples[i].Lineage.String() != w {
			t.Errorf("fragment %d: %v", i, got.Tuples[i])
		}
	}
	// And with an identical-lineage contributor split: re-merge. Project a
	// single tuple — no events inside, stays whole.
	solo := relation.New(relation.NewSchema("s", "A", "B"))
	solo.AddBase(relation.NewFact("x", "p"), "v1", 0, 10, 0.5)
	ps, err := Project(solo, "A")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 1 || ps.Tuples[0].T != interval.New(0, 10) {
		t.Fatalf("solo projection fragmented: %s", ps)
	}
}

// TestProjectSnapshotSemantics: per time point, the projected fact's
// probability equals the possible-worlds probability of the disjunction of
// all covering input tuples.
func TestProjectSnapshotSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		r := relation.New(relation.NewSchema("r", "A", "B"))
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			a := []string{"x", "y"}[rng.Intn(2)]
			b := []string{"p", "q", "w"}[rng.Intn(3)]
			ts := int64(rng.Intn(12))
			te := ts + 1 + int64(rng.Intn(5))
			r.AddBase(relation.NewFact(a, b), fmt.Sprintf("t%d_%d", trial, i),
				ts, te, 0.2+0.7*rng.Float64())
		}
		// Drop duplicate-violating tuples to restore duplicate-freeness.
		r = dedupeByPair(r)
		got, err := Project(r, "A")
		if err != nil {
			t.Fatal(err)
		}
		if err := got.ValidateDuplicateFree(); err != nil {
			t.Fatalf("trial %d: %v\nin=%s\nout=%s", trial, err, r, got)
		}
		dom, ok := r.TimeDomain()
		if !ok {
			continue
		}
		for tp := dom.Ts; tp < dom.Te; tp++ {
			for _, fk := range []string{"x", "y"} {
				var lam *lineage.Expr
				for i := range r.Tuples {
					tu := &r.Tuples[i]
					if tu.Fact[0] == fk && tu.T.Contains(tp) {
						lam = lineage.Or(lam, tu.Lineage)
					}
				}
				want := 0.0
				if lam != nil {
					want = lam.ProbPossibleWorlds()
				}
				gotLam := lineageAt(got, fk, tp)
				gotP := 0.0
				if gotLam != nil {
					gotP = gotLam.ProbPossibleWorlds()
				}
				if math.Abs(gotP-want) > 1e-9 {
					t.Fatalf("trial %d fact %s t=%d: %v vs %v\nin=%s\nout=%s",
						trial, fk, tp, gotP, want, r, got)
				}
			}
		}
	}
}

func dedupeByPair(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema)
	for i := range r.Tuples {
		tu := r.Tuples[i]
		ok := true
		for j := range out.Tuples {
			if out.Tuples[j].Key() == tu.Key() && out.Tuples[j].T.Overlaps(tu.T) {
				ok = false
				break
			}
		}
		if ok {
			out.Tuples = append(out.Tuples, tu)
		}
	}
	return out
}

func TestProjectErrors(t *testing.T) {
	if _, err := Project(sample(), "Nope"); err == nil {
		t.Error("unknown attribute must fail")
	}
}

// TestProjectionCanLeave1OF documents the tractability boundary: a set
// operation downstream of a projection can repeat variables.
func TestProjectionCanLeave1OF(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "A", "B"))
	r.AddBase(relation.NewFact("x", "p"), "w1", 0, 4, 0.5)
	r.AddBase(relation.NewFact("x", "q"), "w2", 2, 6, 0.5)
	p, err := Project(r, "A")
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tuples {
		if !p.Tuples[i].Lineage.IsOneOccurrence() {
			t.Fatalf("single projection already violates 1OF: %s", p.Tuples[i].Lineage)
		}
	}
	// The projection itself is 1OF per tuple, but tuples share variables
	// ACROSS intervals (w1 occurs in [0,2), [2,4)): combining them in a
	// self-set-operation repeats variables.
	seen := make(map[string]bool)
	shared := false
	for i := range p.Tuples {
		for _, v := range p.Tuples[i].Lineage.Vars(nil) {
			if seen[v] {
				shared = true
			}
			seen[v] = true
		}
	}
	if !shared {
		t.Error("expected shared variables across projected fragments")
	}
}

// lineageAt returns the lineage λ_t^{r,f} of the tuple of r with fact
// key factKey valid at t (unique, by duplicate-freeness), or nil
// ("null") when there is none.
func lineageAt(r *relation.Relation, factKey string, t interval.Time) *lineage.Expr {
	for i := range r.Tuples {
		if tp := &r.Tuples[i]; tp.T.Contains(t) && r.KeyAt(i) == factKey {
			return tp.Lineage
		}
	}
	return nil
}
