package relation

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestCountingStepMatchesComparisonSort pins the one step of the sort
// that a bucket takes or not by what it holds: where countingScratch.sort
// says it ordered a bucket, the bucket reads exactly as compareKeys
// orders it, and where it declines, the bucket is as it was, for the
// comparison sort. It takes a one-fact bucket over a dense stretch of
// time and declines one that is sparse, holds a second fact or repeats a
// start point.
func TestCountingStepMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var scratch countingScratch
	for trial := 0; trial < 300; trial++ {
		maxGap := int64(1 + rng.Intn(200)) // dense → sparse
		r := randomRel(rng, 2+rng.Intn(300), 1, maxGap)
		ids, _ := r.ids()
		b := make([]sortKey, r.Len())
		for i := range b {
			b[i] = sortKey{ids[i], r.Tuples[i].T.Ts, r.Tuples[i].T.Te, i}
		}
		// A row of randomRel starts at most maxGap+4 points after the one
		// before it, maxGap/2 + 2.5 on average; the step allows 16.
		must, mustNot := maxGap <= 8, maxGap >= 100 && len(b) >= 50
		switch trial % 3 {
		case 1:
			b[rng.Intn(len(b))].fid++ // a second fact
			must, mustNot = false, true
		case 2:
			b[0].ts = b[len(b)-1].ts // a repeated start point
			must, mustNot = false, true
		}
		want := slices.Clone(b)
		took := scratch.sort(b)
		if took {
			slices.SortFunc(want, compareKeys)
		}
		if !slices.Equal(b, want) {
			t.Fatalf("trial %d (maxGap %d): counting step reported %v; the bucket is neither in order nor as it was", trial, maxGap, took)
		}
		if (must && !took) || (mustNot && took) {
			t.Fatalf("trial %d (maxGap %d, %d keys, shape %d): counting step taken = %v", trial, maxGap, len(b), trial%3, took)
		}
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	e := New(NewSchema("e", "F"))
	e.Sort()
	if e.Len() != 0 {
		t.Fatal("empty")
	}
	s := New(NewSchema("s", "F"))
	s.AddBase(NewFact("x"), "t1", 5, 9, 0.5)
	s.Sort()
	if s.Len() != 1 || s.Tuples[0].T.Ts != 5 {
		t.Fatal("single")
	}
}

// TestSortPermutesTheColumn is the reproducer of the stale-column bug: a
// sort reordered Tuples and left the fid column in the old order (rows
// b,a,c interned 1,0,2 read [1 0 2] over rows a,b,c).
func TestSortPermutesTheColumn(t *testing.T) {
	r := New(NewSchema("r", "F"))
	for i, f := range []string{"b", "a", "c"} {
		r.AddBase(NewFact(f), fmt.Sprintf("t%d", i), 0, 5, 0.5)
	}
	r.Intern()
	r.Sort()
	fid := r.FidCol()
	if fmt.Sprint(fid) != "[0 1 2]" {
		t.Fatalf("fid column after Sort = %v, want [0 1 2]", fid)
	}
	for i := range r.Tuples {
		if got := r.Dict().Key(keys.FactID(fid[i])); got != r.Tuples[i].Key() {
			t.Fatalf("row %d: column names %q, row holds %q", i, got, r.Tuples[i].Key())
		}
	}
}

// TestSortPanicsOnFrozen: Sort refuses to reorder a frozen relation, and
// leaves its rows where they were.
func TestSortPanicsOnFrozen(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(3)), 20, 3, 4)
	r.Intern()
	r.Freeze()
	before := append([]Tuple(nil), r.Tuples...)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Sort on frozen relation") {
			t.Fatalf("Sort on a frozen relation: recovered %q", msg)
		}
		for i := range before {
			if before[i].Lineage != r.Tuples[i].Lineage {
				t.Fatalf("frozen relation was reordered at row %d", i)
			}
		}
	}()
	r.Sort()
}
