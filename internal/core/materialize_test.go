package core_test

// Tests of the materializing drain (core.Materialize): what it keeps
// while it counts the result, what it returns on an empty stream, and
// that the pool balances every time. The
// allocation pin and the frozen-leaf and cancellation cases run through
// whole plans in internal/engine.

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// owned streams a prepared relation in blocks of the batch's own storage,
// full until the last — the way an operator fills them, unlike a scan,
// whose blocks are views — and records the most pooled blocks
// outstanding at any pull.
type owned struct {
	r     *relation.Relation
	i     int
	gets0 uint64
	puts0 uint64
	held  uint64 // max over pulls of pool gets − puts since gets0/puts0
}

func newOwned(r *relation.Relation) *owned {
	c := &owned{r: r}
	c.gets0, c.puts0, _, _ = core.BatchPoolStats()
	return c
}

func (c *owned) Schema() relation.Schema { return c.r.Schema }

func (c *owned) NextBatch(b *core.Batch) bool {
	gets, puts, _, _ := core.BatchPoolStats()
	c.held = max(c.held, (gets-c.gets0)-(puts-c.puts0))
	b.Reset()
	n := min(len(c.r.Tuples)-c.i, b.Cap())
	for i, t := range c.r.Tuples[c.i : c.i+n] {
		b.Append(t, c.r.FidCol()[c.i+i])
	}
	b.Dict = c.r.Dict()
	c.i += n
	return n > 0
}

// poolBalanced fails the test unless every pooled block taken since the
// snapshot came back.
func poolBalanced(t *testing.T, label string, gets0, puts0 uint64) {
	t.Helper()
	if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
		t.Fatalf("%s: pool unbalanced: %d gets vs %d puts", label, gets-gets0, puts-puts0)
	}
}

// TestMaterializeKeepsAtMostTwiceTheResult drains a stream of owned
// blocks and a bare scan (blocks that are views of the leaf): the blocks
// the drain holds while it counts stay within twice the result plus one
// block, and the relation comes out row for row what the stream
// delivered, bound, in an array of exactly that length that is not the
// leaf's.
func TestMaterializeKeepsAtMostTwiceTheResult(t *testing.T) {
	leaf := prepared(t, map[string]*relation.Relation{"r": factRange("r", 0, 20000, 1)})["r"]
	stream := newOwned(leaf)
	gets0, puts0, _, _ := core.BatchPoolStats()
	for label, c := range map[string]core.Cursor{"owned blocks": stream, "scan": core.NewScanCursor(leaf, nil)} {
		out := core.Materialize(c)
		if !reflect.DeepEqual(out.Tuples, leaf.Tuples) || &out.Tuples[0] == &leaf.Tuples[0] {
			t.Fatalf("%s: %d rows; want a copy of the stream's %d rows in order", label, out.Len(), leaf.Len())
		}
		if cap(out.Tuples) != len(out.Tuples) || out.Dict() != leaf.Dict() {
			t.Fatalf("%s: array of %d for %d rows, dict %p (leaf %p)", label, cap(out.Tuples), len(out.Tuples), out.Dict(), leaf.Dict())
		}
		if fid := out.FidCol(); !reflect.DeepEqual(fid, leaf.FidCol()) || cap(fid) != len(fid) || &fid[0] == &leaf.FidCol()[0] {
			t.Fatalf("%s: the result's fid column is not an exact-length copy of the ids the blocks carried", label)
		}
		poolBalanced(t, label, gets0, puts0)
	}
	if pinned := int(stream.held) * core.BatchSize; pinned > 2*leaf.Len()+core.BatchSize {
		t.Fatalf("the drain held %d blocks (%d rows of storage) for a %d-row result", stream.held, pinned, leaf.Len())
	}
}

// TestMaterializeEmpty pins the empty stream: an empty, unbound
// relation with no array at all, named after the cursor's schema.
func TestMaterializeEmpty(t *testing.T) {
	leaf := prepared(t, map[string]*relation.Relation{"r": factRange("r", 0, 10, 1)})["r"]
	empty := newOwned(relation.New(leaf.Schema))
	out := core.Materialize(empty)
	if out.Tuples != nil || out.Dict() != nil || out.Schema.Name != leaf.Schema.Name {
		t.Fatalf("empty stream: tuples %v, dict %p, name %q", out.Tuples, out.Dict(), out.Schema.Name)
	}
	poolBalanced(t, "empty", empty.gets0, empty.puts0)
}

// TestWindowIs64Bytes pins the window at one cache line: fact values,
// packed id, interval and the two lineages — no key string, no
// dictionary pointer.
func TestWindowIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(core.Window{}); got != 64 {
		t.Fatalf("core.Window is %d bytes, want 64", got)
	}
}

// TestBenchmarkHarnessCallShapes pins, in tier-1, the ways the protected
// benchmark/ module reaches into rows and bindings, so a change to the
// relation-owned binding cannot break it silently: (1) layers.go's lazy
// plan appends a plan's blocks to the public Tuples field of a fresh
// relation — that reads as unbound, and ComputeProbs, Subset and a plan
// over it work; (2) layerSort's Clone()+Sort() of a bound relation stays
// bound and comes out sorted; (3) sweepOperands calls BuildCols() on an
// Apply result before scanning it — the materialized column, not a copy;
// (4) lazyPlan.layerDrain pulls through core.AsBatchCursor(c), which is c.
func TestBenchmarkHarnessCallShapes(t *testing.T) {
	r, s := datagen.FixedOverlapPair(3000, 40, 5)
	db := map[string]*relation.Relation{"r": r, "s": s}
	tree := query.MustParse("r | s")

	c, err := query.BuildCursor(tree, db, core.Options{LazyProb: true})
	if err != nil {
		t.Fatal(err)
	}
	lazy := relation.New(c.Schema())
	lazy.Tuples = make([]relation.Tuple, 0, 8)
	bc := core.AsBatchCursor(c)
	if bc != c {
		t.Fatalf("AsBatchCursor(%T) returned another cursor (%T)", c, bc)
	}
	for b := core.NewBatch(256); bc.NextBatch(b); {
		lazy.Tuples = append(lazy.Tuples, b.Tuples...)
	}
	core.ReleaseCursor(c)
	if lazy.Len() == 0 || lazy.Dict() != nil || lazy.FidCol() != nil || lazy.BuildCols() != nil {
		t.Fatalf("%d rows appended to a fresh relation read as bound (dict %p)", lazy.Len(), lazy.Dict())
	}
	lazy.ComputeProbs()
	eager, err := core.Apply(core.OpUnion, r, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(lazy, eager); d != "" {
		t.Fatalf("blocks appended and valuated afterwards differ from the eager result: %s", d)
	}
	if head := datagen.Subset(lazy, 100); head.Len() != 100 || head.Dict() != nil || &head.Tuples[0] == &lazy.Tuples[0] {
		t.Fatalf("Subset of the appended relation: %d rows, dict %p, or an alias of its source", head.Len(), head.Dict())
	}
	if again, err := core.Apply(core.OpIntersect, lazy, r, core.Options{}); err != nil || again.Len() == 0 {
		t.Fatalf("a plan over the appended relation: %d rows, err %v", again.Len(), err)
	}

	sorted := r.Clone()
	sorted.Sort()
	if sorted.Dict() != r.Dict() || !sorted.InCanonicalOrder() || len(sorted.BuildCols()) != r.Len() {
		t.Fatalf("Clone()+Sort() of a bound relation: dict %p (source %p), sorted %v, %d ids", sorted.Dict(), r.Dict(), sorted.InCanonicalOrder(), len(sorted.BuildCols()))
	}
	if head := datagen.Subset(sorted, 10); head.Dict() != sorted.Dict() || len(head.FidCol()) != 10 || head.Frozen() {
		t.Fatal("Subset of a bound relation did not carry the binding onto an unfrozen copy")
	}

	col := eager.BuildCols()
	if col == nil || len(col) != eager.Len() || &col[0] != &eager.FidCol()[0] || &col[0] != &eager.BuildCols()[0] {
		t.Fatal("BuildCols() on an Apply result is not the column the materializer installed")
	}
	if windows := core.Windows(eager, sorted); len(windows) == 0 { // NewAdvancer over the result, as layerSweep runs it
		t.Fatal("no windows over an Apply result and a sorted clone")
	}
}
