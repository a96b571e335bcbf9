package core_test

// Tests of the cursor plumbing between the advancer and its children:
// run-skip gallops that cross block boundaries, block concatenation,
// the trace counters each node records and plan teardown. Plans are
// built by hand from the core constructors; results are checked against
// the Def. 3 oracle.

import (
	"fmt"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// factRange returns a relation with one tuple for every step-th fact of
// [lo, hi): enough distinct facts that a scan of it spans several
// blocks.
func factRange(name string, lo, hi, step int) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "F"))
	for i := lo; i < hi; i += step {
		r.AddBase(relation.NewFact(fmt.Sprintf("f%05d", i)), fmt.Sprintf("%s%d", name, i), int64(i%7), int64(i%7)+3, 0.5)
	}
	return r
}

// prepared runs the named relations through PrepareLeaves and returns
// the scannable clones under the same names.
func prepared(t *testing.T, db map[string]*relation.Relation) map[string]*relation.Relation {
	t.Helper()
	names := query.DBKeys(db)
	rels := make([]*relation.Relation, len(names))
	for i, name := range names {
		rels[i] = db[name]
	}
	rels, err := core.PrepareLeaves(rels, nil, core.Options{Validate: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*relation.Relation{}
	for i, name := range names {
		out[name] = rels[i]
	}
	return out
}

// opCursor builds op(l, r) recording into sp (nil: untraced).
func opCursor(t *testing.T, op core.Op, l, r core.Cursor, sp *obs.Span) *core.OpCursor {
	t.Helper()
	c, err := core.NewOpCursor(op, "", l, r, core.Options{Span: sp})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunSkipGallopsAcrossBlocks intersects 4000 one-tuple facts with
// two of them, one in the first block and one in the last. Over a scan
// the advancer's source asks the scan to skip (skipBlock, answered from
// the relation's fact-run index, and counted in the scan's span), so the
// blocks in between are never handed up; over a
// computed child — a union, which cannot skip — it discards them whole.
// Either way the intersection sees a handful of windows instead of
// thousands, and the result is the oracle's.
func TestRunSkipGallopsAcrossBlocks(t *testing.T) {
	const n = 4000 // ~4 blocks per side
	db := map[string]*relation.Relation{
		"all":  factRange("all", 0, n, 1),
		"even": factRange("even", 0, n, 2),
		"odd":  factRange("odd", 1, n, 2),
		"few":  factRange("few", 7, n, 3493), // f00007 and f03500
	}
	leaves := prepared(t, db)
	for _, tc := range []struct {
		tree string
		left func(sp *obs.Span) core.Cursor
	}{
		{"all & few", func(sp *obs.Span) core.Cursor {
			return core.NewScanCursor(leaves["all"], sp)
		}},
		{"(even | odd) & few", func(sp *obs.Span) core.Cursor {
			return opCursor(t, core.OpUnion, core.NewScanCursor(leaves["even"], nil), core.NewScanCursor(leaves["odd"], nil), sp)
		}},
	} {
		root := obs.NewSpan("")
		left := root.NewChild("")
		plan := opCursor(t, core.OpIntersect, tc.left(left), core.NewScanCursor(leaves["few"], nil), root)
		got := core.Materialize(plan)
		reftest.Check(t, tc.tree, got, query.MustParse(tc.tree), db)
		if got.Len() != db["few"].Len() {
			t.Fatalf("%s: %d tuples, want %d", tc.tree, got.Len(), db["few"].Len())
		}
		st := root.Snapshot()
		if st.Gallops < int64(got.Len()) || st.Windows > 4*int64(got.Len()) {
			t.Fatalf("%s: %d gallops, %d windows for %d matches over %d tuples; the absent runs were not skipped",
				tc.tree, st.Gallops, st.Windows, got.Len(), n)
		}
		// A skippable child is galloped in place — the first block and
		// the tail from f03500 on are all it hands up; a computed child
		// produces every tuple and the source drops them block by block.
		childOut := st.Children[0].TuplesOut
		if scan := tc.tree == "all & few"; scan && (childOut != core.BatchSize+n-3500 || st.Children[0].Gallops == 0) {
			t.Fatalf("%s: the scan handed up %d of %d tuples with %d gallops", tc.tree, childOut, n, st.Children[0].Gallops)
		} else if !scan && childOut != n {
			t.Fatalf("%s: the union produced %d tuples, want all %d", tc.tree, childOut, n)
		}
	}
}

// TestAppendRangeAcrossSourceBlocks concatenates parts of two scan
// blocks into one output block: rows and ids travel together and the
// block stays bound to the sources' dictionary.
func TestAppendRangeAcrossSourceBlocks(t *testing.T) {
	r := prepared(t, map[string]*relation.Relation{"r": factRange("r", 0, 10, 1)})["r"]
	scan := core.NewScanCursor(r, nil)
	b1, b2, out := core.NewBatch(5), core.NewBatch(5), core.NewBatch(8)
	if !scan.NextBatch(b1) || !scan.NextBatch(b2) {
		t.Fatal("scan of 10 rows did not fill two blocks of 5")
	}
	out.Reset()
	out.AppendRange(b1, 3, 3) // empty range: nothing happens
	if out.Len() != 0 || out.Dict != nil {
		t.Fatalf("empty AppendRange left %d rows, dict %p", out.Len(), out.Dict)
	}
	out.AppendRange(b1, 2, 5)
	out.AppendRange(b2, 0, 4)
	if out.Len() != 7 || len(out.Fid) != 7 || out.Dict != r.Dict() {
		t.Fatalf("%d rows, %d ids, dict %p; want 7, 7 and the relation's dictionary", out.Len(), len(out.Fid), out.Dict)
	}
	for i := range out.Tuples {
		if want := &r.Tuples[2+i]; out.Tuples[i].Lineage != want.Lineage || out.Fid[i] != r.FidCol()[2+i] {
			t.Fatalf("row %d is %s with id %d, want %s with id %d", i, out.Tuples[i], out.Fid[i], want, r.FidCol()[2+i])
		}
	}
}

// TestTracedPlanCountersReconcile runs the two-level plan (a | b) | c
// traced, pulling blocks of odd and of regular size, and reconciles every counter:
// each node's tuples with what it emitted, a node's input with its
// children's output, the operators' windows with the window stream of
// their operands, and the result with the untraced plan's.
func TestTracedPlanCountersReconcile(t *testing.T) {
	db := map[string]*relation.Relation{
		"a": factRange("a", 0, 3000, 2),
		"b": factRange("b", 0, 3000, 3),
		"c": factRange("c", 0, 3000, 5),
	}
	leaves := prepared(t, db)
	scan := func(name string) core.Cursor { return core.NewScanCursor(leaves[name], nil) }
	want := core.Materialize(opCursor(t, core.OpUnion, opCursor(t, core.OpUnion, scan("a"), scan("b"), nil), scan("c"), nil))

	root := obs.NewSpan("")
	inner := root.NewChild("")
	spA, spB, spC := inner.NewChild(""), inner.NewChild(""), root.NewChild("")
	union := opCursor(t, core.OpUnion, core.NewScanCursor(leaves["a"], spA), core.NewScanCursor(leaves["b"], spB), inner)
	plan := opCursor(t, core.OpUnion, union, core.NewScanCursor(leaves["c"], spC), root)
	if plan.Schema().Name != want.Schema.Name {
		t.Fatalf("traced schema %q, untraced %q", plan.Schema().Name, want.Schema.Name)
	}
	got := relation.New(plan.Schema())
	blocks := int64(0)
	for _, capacity := range []int{1, 3, 7} { // a few odd-sized pulls, then blocks
		b := core.NewBatch(capacity)
		if !plan.NextBatch(b) || len(b.Tuples) != capacity {
			t.Fatalf("plan handed over %d rows into a block of %d", len(b.Tuples), capacity)
		}
		got.Tuples = append(got.Tuples, b.Tuples...)
		blocks++
	}
	for b := core.NewBatch(256); plan.NextBatch(b); blocks++ {
		got.Tuples = append(got.Tuples, b.Tuples...)
	}
	reftest.Check(t, "(a | b) | c", got, query.MustParse("(a | b) | c"), db)
	if d := relation.Diff(got, want); d != "" {
		t.Fatalf("traced and untraced plans differ: %s", d)
	}

	st := root.Snapshot()
	un := st.Children[0]
	unionOut := core.Materialize(opCursor(t, core.OpUnion, scan("a"), scan("b"), nil))
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"root tuples out", st.TuplesOut, int64(got.Len())},
		{"root batches", st.Batches, blocks},
		{"root tuples in", st.TuplesIn, un.TuplesOut + st.Children[1].TuplesOut},
		{"union tuples out", un.TuplesOut, int64(unionOut.Len())},
		{"union tuples in", un.TuplesIn, int64(leaves["a"].Len() + leaves["b"].Len())},
		{"scan(c) tuples out", st.Children[1].TuplesOut, int64(leaves["c"].Len())},
		{"union windows", un.Windows, int64(len(core.Windows(db["a"], db["b"])))},
		{"root windows", st.Windows, int64(len(core.Windows(unionOut, db["c"])))},
	} {
		if c.got != c.want {
			t.Fatalf("%s = %d, want %d\n%+v", c.what, c.got, c.want, st)
		}
	}
}

// TestReleaseHalfDrainedPlanBalancesPool abandons a traced two-level
// plan after one block: ReleaseCursor must reach every source through
// the operators and hand each buffered pooled block back, so the pool's
// gets and puts since the plan was built balance; releasing again, or
// releasing a drained plan, puts nothing more. The one pooled block is
// the outer union's over its traced operator child; the three scans
// take none.
func TestReleaseHalfDrainedPlanBalancesPool(t *testing.T) {
	leaves := prepared(t, map[string]*relation.Relation{
		"a": factRange("a", 0, 5000, 1),
		"b": factRange("b", 0, 5000, 2),
		"c": factRange("c", 0, 5000, 3),
	})
	scan := func(name string) core.Cursor { return core.NewScanCursor(leaves[name], nil) }
	for _, drainFully := range []bool{false, true} {
		gets0, puts0, _, _ := core.BatchPoolStats()
		sp := obs.NewSpan("")
		plan := opCursor(t, core.OpUnion,
			opCursor(t, core.OpIntersect, scan("a"), scan("b"), sp.NewChild("")), scan("c"), sp)
		b := core.NewBatch(64) // unpooled: leaves through the drop counter
		if !plan.NextBatch(b) {
			t.Fatal("plan produced nothing")
		} else if drainFully {
			for plan.NextBatch(b) {
			}
		}
		core.ReleaseCursor(plan)
		core.ReleaseCursor(plan) // idempotent
		gets, puts, _, _ := core.BatchPoolStats()
		if gets-gets0 != 1 || puts-puts0 != gets-gets0 {
			t.Fatalf("drainFully=%v: %d gets (want 1, one per operator child) vs %d puts after release", drainFully, gets-gets0, puts-puts0)
		}
	}
}

// TestPlanPoolGetsOnePerOperatorChild pins what a plan takes from the
// batch pool, and when: nothing while it is built, and on its first
// pull one block per operator input whose rows are computed — another
// set operation, or a selection, which copies the rows it keeps and
// takes one more for the blocks it filters — and none per scan, which
// hands out views of its leaf in the source's own empty block. Traced
// plans take the same, and a drain puts every block back.
func TestPlanPoolGetsOnePerOperatorChild(t *testing.T) {
	db := map[string]*relation.Relation{
		"a": factRange("a", 0, 3000, 1),
		"b": factRange("b", 0, 3000, 2),
		"c": factRange("c", 0, 3000, 3),
	}
	for _, tc := range []struct {
		q    string
		gets uint64
	}{
		{"a | b", 0},
		{"(a & b) - c", 1},
		{"a - (b | c)", 1},
		{"sigma[F='f00006'](a) | b", 2},
		{"(a & b) | (b - c)", 2},
		{"((a | b) & (b | c)) - (a & c)", 4},
	} {
		for _, traced := range []bool{false, true} {
			opts := core.Options{}
			if traced {
				opts.Span = obs.NewSpan("")
			}
			gets0, puts0, _, _ := core.BatchPoolStats()
			plan, err := query.BuildCursor(query.MustParse(tc.q), db, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gets, _, _, _ := core.BatchPoolStats(); gets != gets0 {
				t.Fatalf("%s (traced=%v): building the plan took %d pooled blocks, want none", tc.q, traced, gets-gets0)
			}
			b := core.NewBatch(64) // unpooled: leaves through the drop counter
			if !plan.NextBatch(b) {
				t.Fatalf("%s: plan produced nothing", tc.q)
			}
			if gets, _, _, _ := core.BatchPoolStats(); gets-gets0 != tc.gets {
				t.Fatalf("%s (traced=%v): the first pull took %d pooled blocks, want %d", tc.q, traced, gets-gets0, tc.gets)
			}
			for plan.NextBatch(b) {
			}
			core.ReleaseCursor(plan)
			poolBalanced(t, tc.q, gets0, puts0)
		}
	}
}

// TestTimeRunSkippingBoundsTheSweep is the work bound of temporal run
// skipping, stated in counts that repeat exactly. The inputs are the
// standing benchmark's sparse shape at a tenth of its size (Table III,
// overlapping factor 0.03: 2×20K tuples over 200 facts whose chains of
// long and of short intervals drift apart in time): almost every fact is
// held by both relations, at different times. The intersection must draw
// candidate windows in proportion to its output, not to its input (under
// 1 % of the input tuples; without time skipping it pops every s tuple —
// 50 %); the difference must draw at most its output plus 1 % of the
// input; the union, which discards nothing, must draw exactly the plain
// advancer's count — Prop. 1's candidate windows. The output is what
// Algs. 2–4 say it is — the plain advancer's window stream (no skipping)
// through the operation's λ-filter and λ-function, tuple for tuple (the
// oracle is too slow on this time domain; the OffsetTime harnesses check
// skipping against it) — and every pooled block comes back.
func TestTimeRunSkippingBoundsTheSweep(t *testing.T) {
	r, s := datagen.Pair(datagen.PairConfig{NumTuples: 20000, NumFacts: 200, MaxLenR: 100, MaxLenS: 3, MaxGap: 3, Seed: 1000})
	leaves := prepared(t, map[string]*relation.Relation{"r": r, "s": s})
	in := int64(r.Len() + s.Len())
	plain := core.Windows(r, s)
	for _, tc := range []struct {
		op      core.Op
		lam     func(w core.Window) *lineage.Expr // nil: the λ-filter drops w
		bound   func(out int64) int64
		exactly bool
	}{
		{core.OpIntersect, func(w core.Window) *lineage.Expr {
			if w.LamR == nil || w.LamS == nil {
				return nil
			}
			return lineage.And(w.LamR, w.LamS)
		}, func(int64) int64 { return in / 100 }, false},
		{core.OpExcept, func(w core.Window) *lineage.Expr {
			if w.LamR == nil {
				return nil
			}
			return lineage.AndNot(w.LamR, w.LamS)
		}, func(out int64) int64 { return out + in/100 }, false},
		{core.OpUnion, func(w core.Window) *lineage.Expr { return lineage.Or(w.LamR, w.LamS) },
			func(int64) int64 { return int64(len(plain)) }, true},
	} {
		gets0, puts0, _, _ := core.BatchPoolStats()
		sp := obs.NewSpan("")
		plan := opCursor(t, tc.op, core.NewScanCursor(leaves["r"], nil), core.NewScanCursor(leaves["s"], nil), sp)
		got := core.Materialize(plan)
		core.ReleaseCursor(plan)
		if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("%s: %d pool gets vs %d puts", tc.op, gets-gets0, puts-puts0)
		}

		n := 0
		for _, w := range plain {
			lam := tc.lam(w)
			if lam == nil {
				continue
			}
			if n < got.Len() {
				if g := &got.Tuples[n]; !g.Fact.Equal(w.Fact) || g.T != w.Interval() || !lineage.EquivalentSyntactic(g.Lineage, lam) {
					t.Fatalf("%s: output tuple %d is %s, the window stream says %s with lineage %s", tc.op, n, g, w, lam)
				}
			}
			n++
		}
		if n != got.Len() {
			t.Fatalf("%s: %d output tuples, the filtered window stream has %d", tc.op, got.Len(), n)
		}

		st := sp.Snapshot()
		bound := tc.bound(int64(n))
		if st.Windows > bound || (tc.exactly && st.Windows != bound) || (st.Gallops == 0) != tc.exactly {
			t.Fatalf("%s: %d windows and %d gallops for %d output tuples over %d input tuples; bound %d (exactly: %v)",
				tc.op, st.Windows, st.Gallops, n, in, bound, tc.exactly)
		}
		t.Logf("%s: %d windows, %d gallops, %d output tuples, %d input tuples", tc.op, st.Windows, st.Gallops, n, in)
	}
}

// TestPrepareLeavesReadsOrderedLeavesInPlace: of leaves that share a
// dictionary, one whose rows are already in (fid, Ts, Te) order comes
// back as itself — no copy — and one that is not comes back as a sorted
// private copy; neither input is written, and the plan over them agrees
// with the oracle.
func TestPrepareLeavesReadsOrderedLeavesInPlace(t *testing.T) {
	r, s := datagen.Pair(datagen.PairConfig{NumTuples: 600, NumFacts: 12, MaxLenR: 10, MaxLenS: 10, MaxGap: 3, Seed: 7})
	if relation.SharedDict(r, s) == nil || r.InCanonicalOrder() {
		t.Fatal("the pair is expected to share a dictionary and to arrive in generation order")
	}
	s.Sort()
	rBefore := append([]relation.Tuple(nil), r.Tuples...)
	sBefore := append([]relation.Tuple(nil), s.Tuples...)

	leaves, err := core.PrepareLeaves([]*relation.Relation{r, s}, nil, core.Options{Validate: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if leaves[1] != s {
		t.Fatal("an ordered leaf on the shared dictionary was copied")
	}
	if leaves[0] == r || !leaves[0].InCanonicalOrder() || leaves[0].Dict() != r.Dict() || leaves[0].Len() != r.Len() {
		t.Fatal("an unordered leaf did not come back as a sorted private copy on the shared dictionary")
	}
	for name, pair := range map[string][2][]relation.Tuple{"r": {r.Tuples, rBefore}, "s": {s.Tuples, sBefore}} {
		for i := range pair[1] {
			if got, want := pair[0][i], pair[1][i]; got.Lineage != want.Lineage || got.T != want.T || got.Prob != want.Prob || !got.Fact.Equal(want.Fact) {
				t.Fatalf("PrepareLeaves wrote input %s at row %d", name, i)
			}
		}
	}

	db := map[string]*relation.Relation{"r": r, "s": s}
	for _, q := range []string{"r & s", "r | s", "r - s", "s - r"} {
		n := query.MustParse(q)
		c, err := query.BuildCursor(n, db, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reftest.Check(t, q, core.Materialize(c), n, db)
	}
}
