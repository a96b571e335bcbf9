package core

import (
	"testing"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

// TestRunIndexDecidesTheSparseSweep pins the index path of skipRuns by
// counts, not by clock. On the sparse shape of
// TestTimeRunSkippingBoundsTheSweep (2×20K tuples over 200 facts, each
// held by both relations at different times) the sweep draws the same
// windows and takes the same gallops as it did when every decision read
// the peeked rows, and all but O(output) of those gallops are decided
// from the two run indexes alone: a run whose span is over before the
// other side's starts is skipped whole, and the next fact is reached by
// a fact-only skip. On a dense pair, where the runs' spans meet, the
// counts are unchanged too and the index decides no more skips than
// there are. The same shape at 2×200K tuples over 2,000 facts — the
// standing benchmark's sparse-stream pair — is pinned beside it.
func TestRunIndexDecidesTheSparseSweep(t *testing.T) {
	sweep := func(op Op, r, s *relation.Relation) (a *Advancer, out int) {
		t.Helper()
		leaves, err := PrepareLeaves([]*relation.Relation{r, s}, nil, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewOpCursor(op, "", NewScanCursor(leaves[0], nil), NewScanCursor(leaves[1], nil), Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = Materialize(c).Len()
		ReleaseCursor(c)
		return c.a, out
	}

	r, s := datagen.Pair(datagen.PairConfig{NumTuples: 20000, NumFacts: 200, MaxLenR: 100, MaxLenS: 3, MaxGap: 3, Seed: 1000})
	lr, ls := datagen.Pair(datagen.PairConfig{NumTuples: 200000, NumFacts: 2000, MaxLenR: 100, MaxLenS: 3, MaxGap: 3, Seed: 1000})
	dr, ds := datagen.FixedOverlapPair(20000, 200, 7)
	for _, tc := range []struct {
		name             string
		op               Op
		r, s             *relation.Relation
		windows, gallops int64
		indexed          int64 // gallops decided from the index alone
	}{
		{"sparse r ∩Tp s", OpIntersect, r, s, 175, 401, 397},
		{"sparse r −Tp s", OpExcept, r, s, 20168, 202, 199},
		// BenchmarkIntersectSparseShape's catalog-200K pair, the standing
		// benchmark's sparse-stream scale.
		{"sparse-200K r ∩Tp s", OpIntersect, lr, ls, 182, 3999, 3997},
		{"sparse-200K r −Tp s", OpExcept, lr, ls, 200174, 2000, 1999},
		{"dense r ∩Tp s", OpIntersect, dr, ds, 32632, 9073, 0},
		{"dense r −Tp s", OpExcept, dr, ds, 37740, 4519, 0},
	} {
		a, out := sweep(tc.op, tc.r, tc.s)
		if a.windows != tc.windows || a.gallops != tc.gallops {
			t.Fatalf("%s: %d windows and %d gallops, want %d and %d", tc.name, a.windows, a.gallops, tc.windows, tc.gallops)
		}
		if a.indexed != tc.indexed || a.gallops-a.indexed > int64(out) {
			t.Fatalf("%s: %d of %d gallops decided from the index alone, for %d output tuples", tc.name, a.indexed, a.gallops, out)
		}
		t.Logf("%s: %d windows, %d gallops, %d decided from the index, %d output tuples", tc.name, a.windows, a.gallops, a.indexed, out)
	}
}
