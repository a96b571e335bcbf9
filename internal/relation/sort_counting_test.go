package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/keys"
)

func randomRel(rng *rand.Rand, n, facts int, maxGap int64) *Relation {
	r := New(NewSchema("r", "F"))
	cursors := make([]int64, facts)
	for i := 0; i < n; i++ {
		f := rng.Intn(facts)
		ts := cursors[f] + rng.Int63n(maxGap+1)
		te := ts + 1 + rng.Int63n(4)
		cursors[f] = te
		r.AddBase(NewFact(fmt.Sprintf("f%03d", f)), fmt.Sprintf("t%d", i), ts, te, 0.5)
	}
	// Shuffle so the input is unsorted.
	rng.Shuffle(len(r.Tuples), func(i, j int) {
		r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i]
	})
	return r
}

// TestSortCountingMatchesSort: both sorts produce identical orderings on
// duplicate-free relations, across dense and sparse time domains.
func TestSortCountingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		maxGap := int64(1 + rng.Intn(200)) // dense → sparse groups
		a := randomRel(rng, 1+rng.Intn(300), 1+rng.Intn(5), maxGap)
		b := a.Clone()
		a.Sort()
		b.SortCounting()
		if len(a.Tuples) != len(b.Tuples) {
			t.Fatal("length changed")
		}
		for i := range a.Tuples {
			x, y := &a.Tuples[i], &b.Tuples[i]
			// Lineage by value: each sort moved the leaves of its own relation.
			if x.Key() != y.Key() || x.T != y.T || x.Prob != y.Prob ||
				x.Lineage.String() != y.Lineage.String() || x.Lineage.VarProb() != y.Lineage.VarProb() {
				t.Fatalf("trial %d (maxGap %d): position %d differs: %v vs %v",
					trial, maxGap, i, x, y)
			}
		}
		if !b.IsSorted() {
			t.Fatalf("trial %d: counting sort output not sorted", trial)
		}
	}
}

func TestSortCountingEmptyAndSingle(t *testing.T) {
	e := New(NewSchema("e", "F"))
	e.SortCounting()
	if e.Len() != 0 {
		t.Fatal("empty")
	}
	s := New(NewSchema("s", "F"))
	s.AddBase(NewFact("x"), "t1", 5, 9, 0.5)
	s.SortCounting()
	if s.Len() != 1 || s.Tuples[0].T.Ts != 5 {
		t.Fatal("single")
	}
}

// TestSortCountingPermutesTheColumn is the reproducer of the stale-column
// bug: the counting sort reordered Tuples and left the fid column in the
// old order (rows b,a,c interned 1,0,2 read [1 0 2] over rows a,b,c).
func TestSortCountingPermutesTheColumn(t *testing.T) {
	r := New(NewSchema("r", "F"))
	for i, f := range []string{"b", "a", "c"} {
		r.AddBase(NewFact(f), fmt.Sprintf("t%d", i), 0, 5, 0.5)
	}
	r.Intern()
	r.BuildCols()
	r.SortCounting()
	fid := r.FidCol()
	if fmt.Sprint(fid) != "[0 1 2]" {
		t.Fatalf("fid column after SortCounting = %v, want [0 1 2]", fid)
	}
	for i := range r.Tuples {
		if got := r.Dict().Key(keys.FactID(fid[i])); got != r.Tuples[i].Key() {
			t.Fatalf("row %d: column names %q, row holds %q", i, got, r.Tuples[i].Key())
		}
	}
}

// TestSortCountingPanicsOnFrozen: like Sort, the counting sort refuses to
// reorder a frozen relation.
func TestSortCountingPanicsOnFrozen(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(3)), 20, 3, 4)
	r.Intern()
	r.Freeze()
	before := append([]Tuple(nil), r.Tuples...)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "SortCounting on frozen relation") {
			t.Fatalf("SortCounting on a frozen relation: recovered %q", msg)
		}
		for i := range before {
			if before[i].Lineage != r.Tuples[i].Lineage {
				t.Fatalf("frozen relation was reordered at row %d", i)
			}
		}
	}()
	r.SortCounting()
}
