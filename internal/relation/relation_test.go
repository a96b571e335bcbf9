package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
)

func mk(name string) *Relation { return New(NewSchema(name, "F")) }

// TestTupleIs56Bytes keeps the row at fact, lineage, interval and
// probability — two pointer words — and nothing else: every scan, sort
// and materialize moves this many bytes per tuple, and the GC scans it.
// A fact binding belongs in the relation's fid column, not here.
func TestTupleIs56Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != 56 {
		t.Fatalf("relation.Tuple is %d bytes, want 56", got)
	}
}

func TestFactKeyAndEquality(t *testing.T) {
	single := NewFact("milk")
	if single.Key() != "milk" {
		t.Errorf("single-attribute key: %q", single.Key())
	}
	multi := NewFact("milk", "zurich")
	multi2 := NewFact("milk", "zurich")
	if multi.Key() != multi2.Key() || !multi.Equal(multi2) {
		t.Error("multi-attribute facts must compare equal")
	}
	if NewFact("a", "b").Key() == NewFact("ab").Key() {
		t.Error("key must separate attribute boundaries")
	}
	if NewFact("a").Equal(NewFact("a", "b")) {
		t.Error("different arity facts must differ")
	}
	if got := multi.String(); got != "('milk','zurich')" {
		t.Errorf("fact string: %s", got)
	}
}

func TestSchemaCompatible(t *testing.T) {
	a := NewSchema("a", "X", "Y")
	b := NewSchema("b", "P", "Q")
	c := NewSchema("c", "P")
	if !a.Compatible(b) || a.Compatible(c) {
		t.Error("compatibility is arity-based")
	}
}

func TestAddBaseAndProb(t *testing.T) {
	r := mk("r")
	r.AddBase(NewFact("x"), "r1", 1, 5, 0.25)
	tu := r.Tuples[0]
	if tu.Prob != 0.25 || tu.Lineage.String() != "r1" || tu.T != interval.New(1, 5) {
		t.Fatalf("base tuple wrong: %v", tu)
	}
	d := NewDerived(NewFact("x"), lineage.And(tu.Lineage, lineage.Var("s1", 0.5)), interval.New(2, 3))
	if math.Abs(d.Prob-0.125) > 1e-12 {
		t.Errorf("derived prob %v", d.Prob)
	}
	lz := NewDerivedLazy(NewFact("x"), tu.Lineage, interval.New(2, 3))
	if lz.Prob != 0 {
		t.Error("lazy tuple must not valuate")
	}
	if lz.ComputeProb(); lz.Prob != 0.25 {
		t.Error("ComputeProb")
	}
}

func TestSortAndInCanonicalOrder(t *testing.T) {
	r := mk("r")
	r.AddBase(NewFact("b"), "r1", 5, 6, 0.5)
	r.AddBase(NewFact("a"), "r2", 7, 9, 0.5)
	r.AddBase(NewFact("a"), "r3", 1, 3, 0.5)
	if r.InCanonicalOrder() {
		t.Error("not sorted yet")
	}
	r.Sort()
	if !r.InCanonicalOrder() {
		t.Error("sorted now")
	}
	order := []string{"r3", "r2", "r1"}
	for i, id := range order {
		if r.Tuples[i].Lineage.String() != id {
			t.Fatalf("position %d: %v", i, r.Tuples[i])
		}
	}
}

func TestValidateDuplicateFree(t *testing.T) {
	r := mk("r")
	r.AddBase(NewFact("x"), "r1", 1, 5, 0.5)
	r.AddBase(NewFact("x"), "r2", 5, 8, 0.5) // adjacent: fine
	r.AddBase(NewFact("y"), "r3", 2, 4, 0.5) // other fact: fine
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	r.AddBase(NewFact("x"), "r4", 4, 6, 0.5) // overlaps r1 and r2
	err := r.ValidateDuplicateFree()
	if err == nil {
		t.Fatal("expected violation")
	}
	if !strings.Contains(err.Error(), "x") {
		t.Errorf("error should name the fact: %v", err)
	}
}

// TestAdmitOrderedPass pins admission's one-pass path: a relation
// already in canonical order without an overlap is admitted as it is,
// and bound when it arrived unbound, while one in order that overlaps,
// one out of order and one with an overlap out of order all go through
// the sort and get the error ValidateDuplicateFree gives, word for word,
// or are sorted, with moved naming where each row went.
func TestAdmitOrderedPass(t *testing.T) {
	build := func(ivs ...[2]int64) *Relation {
		r := mk("r")
		for i, iv := range ivs {
			f := "x"
			if i%2 == 1 && len(ivs) > 3 {
				f = "y"
			}
			r.AddBase(NewFact(f), fmt.Sprintf("r%d", i), iv[0], iv[1], 0.5)
		}
		return r
	}
	for _, tc := range []struct {
		name   string
		r      *Relation
		refuse bool
	}{
		{"ordered", build([2]int64{1, 5}, [2]int64{5, 8}, [2]int64{9, 10}), false},
		{"ordered, overlapping", build([2]int64{1, 5}, [2]int64{3, 8}), true},
		{"ordered, equal", build([2]int64{1, 5}, [2]int64{1, 5}), true},
		{"out of order", build([2]int64{5, 8}, [2]int64{1, 5}), false},
		{"out of order, overlapping", build([2]int64{3, 8}, [2]int64{1, 5}), true},
		{"two facts interleaved", build([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{2, 3}), false},
	} {
		want := tc.r.ValidateDuplicateFree()
		before := slices.Clone(tc.r.Tuples)
		ordered := tc.r.InCanonicalOrder()
		moved, err := tc.r.Admit()
		switch {
		case (want != nil) != tc.refuse:
			t.Fatalf("%s: ValidateDuplicateFree says %v", tc.name, want)
		case tc.r.Dict() == nil:
			t.Fatalf("%s: Admit left the relation unbound", tc.name)
		case tc.refuse && (err == nil || err.Error() != want.Error() || moved != nil):
			t.Fatalf("%s: Admit says %v, want %v", tc.name, err, want)
		case tc.refuse && !slices.EqualFunc(tc.r.Tuples, before, func(a, b Tuple) bool { return a.T == b.T && a.Lineage == b.Lineage }):
			t.Fatalf("%s: a refused relation's rows moved", tc.name)
		case !tc.refuse && (err != nil || !tc.r.InCanonicalOrder() || (moved == nil) != ordered):
			t.Fatalf("%s: Admit: %v, in order %v, moved %v", tc.name, err, tc.r.InCanonicalOrder(), moved)
		}
		for i, j := range moved {
			if tc.r.Tuples[j].T != before[i].T || tc.r.Tuples[j].Lineage.String() != before[i].Lineage.String() {
				t.Fatalf("%s: row %d moved to %d, which holds %v", tc.name, i, j, tc.r.Tuples[j])
			}
		}
	}
}

func TestTimeslice(t *testing.T) {
	r := mk("r")
	r.AddBase(NewFact("x"), "r1", 1, 5, 0.5)
	r.AddBase(NewFact("y"), "r2", 3, 7, 0.5)
	snap := r.Timeslice(3)
	if snap.Len() != 2 {
		t.Fatalf("snapshot size %d", snap.Len())
	}
	for _, tu := range snap.Tuples {
		if tu.T != (interval.Interval{Ts: 3, Te: 4}) {
			t.Errorf("degenerate interval wrong: %v", tu.T)
		}
	}
	if r.Timeslice(0).Len() != 0 || r.Timeslice(5).Len() != 1 {
		t.Error("boundary slicing wrong")
	}
}

func TestTimeDomain(t *testing.T) {
	r := mk("r")
	if _, ok := r.TimeDomain(); ok {
		t.Error("empty relation has no domain")
	}
	r.AddBase(NewFact("x"), "r1", 3, 5, 0.5)
	r.AddBase(NewFact("y"), "r2", 1, 2, 0.5)
	dom, ok := r.TimeDomain()
	if !ok || dom != interval.New(1, 5) {
		t.Errorf("domain %v", dom)
	}
}

func TestCoalesce(t *testing.T) {
	r := mk("r")
	lam := lineage.Var("r1", 0.5)
	// Three fragments of the same tuple: adjacent + same lineage.
	r.Tuples = append(r.Tuples,
		NewDerived(NewFact("x"), lam, interval.New(1, 3)),
		NewDerived(NewFact("x"), lam, interval.New(3, 5)),
		NewDerived(NewFact("x"), lam, interval.New(7, 9)), // gap: stays
		NewDerived(NewFact("y"), lam, interval.New(5, 7)), // other fact
	)
	c := r.Coalesce()
	if c.Len() != 3 {
		t.Fatalf("coalesced to %d tuples: %s", c.Len(), c)
	}
	c.Sort()
	if c.Tuples[0].T != interval.New(1, 5) {
		t.Errorf("merged interval %v", c.Tuples[0].T)
	}
	// Adjacent but different lineage must NOT merge (change preservation).
	r2 := mk("r2")
	r2.Tuples = append(r2.Tuples,
		NewDerived(NewFact("x"), lineage.Var("a", .5), interval.New(1, 3)),
		NewDerived(NewFact("x"), lineage.Var("b", .5), interval.New(3, 5)),
	)
	if r2.Coalesce().Len() != 2 {
		t.Error("different lineages merged")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := mk("a"), mk("b")
	a.AddBase(NewFact("x"), "t1", 1, 3, 0.5)
	b.AddBase(NewFact("x"), "t1", 1, 3, 0.5)
	if Diff(a, b) != "" {
		t.Fatalf("equal relations differ: %s", Diff(a, b))
	}
	b.Tuples[0].T.Te = 4
	if !strings.Contains(Diff(a, b), "interval") {
		t.Errorf("interval diff: %q", Diff(a, b))
	}
	b.Tuples[0].T.Te = 3
	b.Tuples[0].Prob = 0.7
	if !strings.Contains(Diff(a, b), "prob") {
		t.Errorf("prob diff: %q", Diff(a, b))
	}
	c := mk("c")
	if !strings.Contains(Diff(a, c), "cardinality") {
		t.Error("cardinality diff")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := mk("a")
	a.AddBase(NewFact("x"), "t1", 1, 3, 0.5)
	c := a.Clone()
	c.Tuples[0].T.Te = 99
	if a.Tuples[0].T.Te == 99 {
		t.Error("clone shares tuple storage")
	}
}

func TestComputeStats(t *testing.T) {
	r := mk("r")
	r.AddBase(NewFact("x"), "r1", 0, 10, 0.5)
	r.AddBase(NewFact("x"), "r2", 10, 12, 0.5)
	r.AddBase(NewFact("y"), "r3", 5, 8, 0.5)
	s := ComputeStats(r)
	if s.Cardinality != 3 || s.NumFacts != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MinDuration != 2 || s.MaxDuration != 10 || math.Abs(s.AvgDuration-5) > 1e-9 {
		t.Errorf("durations: %+v", s)
	}
	if s.TimeRange != 12 {
		t.Errorf("range: %d", s.TimeRange)
	}
	if s.MaxPerPoint != 2 {
		t.Errorf("max per point: %d", s.MaxPerPoint)
	}
	if got := s.String(); !strings.Contains(got, "Cardinality") {
		t.Error("stats render")
	}
	if z := ComputeStats(mk("z")); z.Cardinality != 0 {
		t.Error("empty stats")
	}
}

func TestOverlapFactorBounds(t *testing.T) {
	r, s := mk("r"), mk("s")
	// Identical single tuples: factor 1.
	r.AddBase(NewFact("x"), "r1", 0, 10, 0.5)
	s.AddBase(NewFact("x"), "s1", 0, 10, 0.5)
	if f := OverlapFactor(r, s); math.Abs(f-1) > 1e-12 {
		t.Errorf("identical: %v", f)
	}
	// Disjoint: factor 0.
	s2 := mk("s2")
	s2.AddBase(NewFact("x"), "s1", 20, 30, 0.5)
	if f := OverlapFactor(r, s2); f != 0 {
		t.Errorf("disjoint: %v", f)
	}
	// Half covered: [0,10) vs [5,15): overlap 5, union 15.
	s3 := mk("s3")
	s3.AddBase(NewFact("x"), "s1", 5, 15, 0.5)
	if f := OverlapFactor(r, s3); math.Abs(f-5.0/15) > 1e-12 {
		t.Errorf("partial: %v", f)
	}
	// Different facts never overlap.
	s4 := mk("s4")
	s4.AddBase(NewFact("y"), "s1", 0, 10, 0.5)
	if f := OverlapFactor(r, s4); f != 0 {
		t.Errorf("fact-disjoint: %v", f)
	}
	if OverlapFactor(mk("e1"), mk("e2")) != 0 {
		t.Error("empty relations")
	}
}

func TestTupleString(t *testing.T) {
	tu := NewBase(NewFact("milk"), "c1", 2, 4, 0.42)
	if got := tu.String(); got != "('milk', c1, [2,4), 0.42)" {
		t.Errorf("tuple string: %s", got)
	}
}

func TestComputeProbsVariants(t *testing.T) {
	r := mk("r")
	a := lineage.Var("a", 0.5)
	b := lineage.Var("b", 0.4)
	r.Tuples = append(r.Tuples,
		NewDerivedLazy(NewFact("x"), lineage.And(a, b), interval.New(1, 3)),
		NewDerivedLazy(NewFact("y"), lineage.Or(a, lineage.And(a, b)), interval.New(1, 3)),
	)
	r.ComputeProbs()
	if math.Abs(r.Tuples[0].Prob-0.2) > 1e-12 {
		t.Errorf("1OF prob: %v", r.Tuples[0].Prob)
	}
	if math.Abs(r.Tuples[1].Prob-0.5) > 1e-12 {
		t.Errorf("shared-var exact prob: %v", r.Tuples[1].Prob)
	}
}
