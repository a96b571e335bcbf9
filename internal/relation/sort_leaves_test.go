package relation

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"github.com/tpset/tpset/internal/lineage"
)

// leafRow is a base row by value: everything a reader of the row can
// observe, none of it an address.
type leafRow struct {
	key, lam string
	ts, te   int64
	prob, vp float64
}

func rowValues(rows []Tuple) []leafRow {
	out := make([]leafRow, len(rows))
	for i := range rows {
		t := &rows[i]
		out[i] = leafRow{t.Key(), t.Lineage.String(), t.T.Ts, t.T.Te, t.Prob, t.Lineage.VarProb()}
	}
	return out
}

// TestSortLaysLeavesInRowOrder is the property test of the leaf
// relayout: an in-place sort that moves rows of base tuples leaves them
// value-identical to a reference stable sort — fact, interval,
// probability, rendered lineage, marginal — with leaf addresses
// ascending in row order, and a Clone taken before the sort keeps the
// leaves it had and still renders and evaluates the same.
func TestSortLaysLeavesInRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		r := randomRel(rng, 2+rng.Intn(300), 1+rng.Intn(6), int64(1+rng.Intn(50)))
		for i := range r.Tuples { // marginals that tell rows apart
			t0 := &r.Tuples[i]
			*t0 = NewBase(t0.Fact, t0.Lineage.String(), t0.T.Ts, t0.T.Te, 0.1+0.9*rng.Float64())
		}
		if trial%2 == 0 {
			r.Intern()
		}
		want := rowValues(r.Tuples)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.key != b.key {
				return a.key < b.key
			}
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			return a.te < b.te
		})
		before := r.Clone()
		beforeRows := append([]Tuple(nil), before.Tuples...)
		beforeValues := rowValues(before.Tuples)

		const name = "Sort"
		r.Sort()
		got := rowValues(r.Tuples)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d %s: row %d is %+v, want %+v", trial, name, i, got[i], want[i])
			}
			if i > 0 && uintptr(unsafe.Pointer(r.Tuples[i].Lineage)) <= uintptr(unsafe.Pointer(r.Tuples[i-1].Lineage)) {
				t.Fatalf("trial %d %s: leaf of row %d does not lie after the leaf of row %d", trial, name, i, i-1)
			}
		}
		for i, v := range rowValues(before.Tuples) {
			if v != beforeValues[i] || before.Tuples[i].Lineage != beforeRows[i].Lineage {
				t.Fatalf("trial %d %s: row %d of a Clone taken before the sort changed", trial, name, i)
			}
		}
	}
}

// TestSortKeepsLeavesItNeedNotMove: rows already in order, a relation
// that carries a formula or a null lineage, and SortedCopy keep the
// lineage pointers they had.
func TestSortKeepsLeavesItNeedNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pointers := func(r *Relation) map[*lineage.Expr]bool {
		m := make(map[*lineage.Expr]bool, r.Len())
		for i := range r.Tuples {
			m[r.Tuples[i].Lineage] = true
		}
		return m
	}
	samePointers := func(ctx string, r *Relation, had map[*lineage.Expr]bool) {
		t.Helper()
		if !r.InCanonicalOrder() {
			t.Fatalf("%s: not sorted", ctx)
		}
		for i := range r.Tuples {
			if !had[r.Tuples[i].Lineage] {
				t.Fatalf("%s: row %d points at a lineage node the relation did not hold", ctx, i)
			}
		}
	}

	r := randomRel(rng, 200, 4, 3)
	copied := r.SortedCopy()
	samePointers("SortedCopy", copied, pointers(r))

	r.Sort()
	had := pointers(r)
	first := r.Tuples[0].Lineage
	r.Sort()
	samePointers("a second sort of ordered rows", r, had)
	if r.Tuples[0].Lineage != first {
		t.Fatal("sorting ordered rows moved a leaf")
	}

	for _, hole := range []*lineage.Expr{nil, lineage.And(lineage.Var("u1", 0.5), lineage.Var("u2", 0.5))} {
		f := randomRel(rng, 200, 4, 3)
		f.Tuples[137].Lineage = hole
		had := pointers(f)
		f.Sort()
		samePointers("a relation that carries a non-leaf", f, had)
	}
}
