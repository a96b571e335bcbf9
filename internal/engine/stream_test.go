package engine

import (
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

var _ core.Cursor = (*StreamCursor)(nil)

// TestStreamCursorAssumeSorted pins the query-service path at the
// engine's default thresholds (the oracle harness forces them to 1):
// pre-sorted catalog-style relations, large enough to partition on their
// own, streamed with AssumeSorted.
func TestStreamCursorAssumeSorted(t *testing.T) {
	r, s := datagen.FixedOverlapPair(6000, 40, 7)
	r.Sort()
	s.Sort()
	db := map[string]*relation.Relation{"r": r, "s": s}
	tree := query.MustParse("(r & s) | (r - s)")
	got, err := New(Config{Workers: 4}).EvalCursor(tree, db, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	reftest.Check(t, "assume-sorted", got, tree, db)
}

// TestStreamCursorBuildErrors pins synchronous plan-error surfacing on
// the partitioned path.
func TestStreamCursorBuildErrors(t *testing.T) {
	db := reftest.DB(rand.New(rand.NewSource(53)), reftest.Shape{Relations: 1, MaxTuples: 50, Facts: 8})
	e := New(Config{Workers: 4, MinPartitionSize: 8})
	if _, err := e.Cursor(query.MustParse("r0 & zz"), db, core.Options{}); err == nil {
		t.Fatal("unknown relation must fail at plan time")
	}
}
