package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// Golden trace-correctness tests: the per-operator counts of a traced
// plan must equal the operators' actual output, and tracing must never
// change the result stream itself — the traced stream is checked against
// the Def. 3 oracle like the untraced one.

// traceDB generates the catalog of the golden tests as the query service
// holds one: sorted, interned into one dictionary.
func traceDB(seed int64, relations, maxTuples, facts int) map[string]*relation.Relation {
	return reftest.DB(rand.New(rand.NewSource(seed)), reftest.Shape{
		Relations: relations, MaxTuples: maxTuples, Facts: facts, Binding: reftest.Shared, Sorted: true})
}

// evalTraced runs tree through e under a fresh span and checks the
// traced result against the oracle.
func evalTraced(t *testing.T, e *Engine, tree query.Node, db map[string]*relation.Relation) (*relation.Relation, *obs.SpanStats) {
	t.Helper()
	span := obs.NewSpan("")
	got, err := e.EvalCursor(tree, db, core.Options{AssumeSorted: true, Span: span})
	if err != nil {
		t.Fatal(err)
	}
	reftest.Check(t, "traced "+tree.String(), got, tree, db)
	st := span.Snapshot()
	checkSpanInvariants(t, st)
	return got, st
}

// checkSpanInvariants walks a stats tree checking the structural
// invariants that hold for every traced plan: TuplesIn equals the sum
// of the children's TuplesOut, and a set-operation node never emits
// more tuples than the candidate windows its advancer popped (each
// window yields at most one output tuple).
func checkSpanInvariants(t *testing.T, st *obs.SpanStats) {
	t.Helper()
	var childOut int64
	for _, c := range st.Children {
		childOut += c.TuplesOut
		checkSpanInvariants(t, c)
	}
	if st.TuplesIn != childOut {
		t.Fatalf("node %q: tuplesIn = %d, want sum of children %d", st.Op, st.TuplesIn, childOut)
	}
	if st.Windows > 0 && st.TuplesOut > st.Windows {
		t.Fatalf("node %q: tuplesOut %d > windows %d", st.Op, st.TuplesOut, st.Windows)
	}
}

// TestTraceGoldenSequential pins exact per-node counts on a fixed
// union-only tree — unions drain both inputs completely, so every
// node's emission equals its subtree's full result.
func TestTraceGoldenSequential(t *testing.T) {
	db := traceDB(71, 3, 200, 24)
	tree := &query.SetOp{
		Op:    core.OpUnion,
		Left:  &query.SetOp{Op: core.OpUnion, Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "r1"}},
		Right: &query.Rel{Name: "r2"},
	}
	e := New(Config{Workers: 1})
	inner, err := e.EvalCursor(tree.Left, db, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	reftest.Check(t, "inner union", inner, tree.Left, db)

	got, st := evalTraced(t, e, tree, db)
	if st.Op != "∪Tp" {
		t.Fatalf("root op = %q, want ∪Tp", st.Op)
	}
	if st.TuplesOut != int64(got.Len()) {
		t.Fatalf("root tuplesOut = %d, want %d", st.TuplesOut, got.Len())
	}
	if len(st.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(st.Children))
	}
	left, right := st.Children[0], st.Children[1]
	if left.TuplesOut != int64(inner.Len()) {
		t.Fatalf("inner union tuplesOut = %d, want %d", left.TuplesOut, inner.Len())
	}
	if right.Op != "scan(r2)" || right.TuplesOut != int64(db["r2"].Len()) {
		t.Fatalf("scan(r2) = %q/%d, want %d tuples", right.Op, right.TuplesOut, db["r2"].Len())
	}
	for i, name := range []string{"r0", "r1"} {
		if sc := left.Children[i]; sc.TuplesOut != int64(db[name].Len()) {
			t.Fatalf("scan(%s) tuplesOut = %d, want %d", name, sc.TuplesOut, db[name].Len())
		}
	}
	if st.Windows == 0 || left.Windows == 0 {
		t.Fatalf("union nodes report no windows (%d, %d)", st.Windows, left.Windows)
	}
}

// TestTraceGoldenMixedOps runs a fixed tree with all three operations
// plus a selection: exact root count, structural invariants everywhere.
func TestTraceGoldenMixedOps(t *testing.T) {
	db := traceDB(72, 3, 300, 24)
	tree := &query.SetOp{
		Op: core.OpExcept,
		Left: &query.SetOp{
			Op:    core.OpUnion,
			Left:  &query.Rel{Name: "r0"},
			Right: &query.Select{Attr: "F", Value: "f003", Input: &query.Rel{Name: "r1"}},
		},
		Right: &query.SetOp{Op: core.OpIntersect, Left: &query.Rel{Name: "r1"}, Right: &query.Rel{Name: "r2"}},
	}
	got, st := evalTraced(t, New(Config{Workers: 1}), tree, db)
	if st.Op != "−Tp" {
		t.Fatalf("root op = %q, want −Tp", st.Op)
	}
	if st.TuplesOut != int64(got.Len()) {
		t.Fatalf("root tuplesOut = %d, want %d", st.TuplesOut, got.Len())
	}
}

// TestTraceGoldenSharded pins the sharded plan's trace across worker
// counts: the root is the concat node, labelled with the number of
// shards that run (all-empty ones are dropped before it is counted), its
// emission equals the full result and its wall time includes the cut;
// its children are the shard plans, "shardN: "-prefixed in shard order,
// every shard subtree satisfies the structural invariants, and the
// shards' root emissions sum to the result cardinality (shard fact
// ranges are disjoint and exhaustive).
func TestTraceGoldenSharded(t *testing.T) {
	db := traceDB(73, 3, 400, 32)
	tree := &query.SetOp{
		Op:    core.OpUnion,
		Left:  &query.SetOp{Op: core.OpExcept, Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "r1"}},
		Right: &query.Rel{Name: "r2"},
	}
	for _, workers := range []int{2, 8} {
		got, st := evalTraced(t, New(Config{Workers: workers, MinPartitionSize: 8}), tree, db)
		if want := fmt.Sprintf("concat[%d shards]", len(st.Children)); st.Op != want || len(st.Children) < 2 {
			t.Fatalf("workers=%d: root op = %q over %d shard subtrees, want %q over >= 2", workers, st.Op, len(st.Children), want)
		}
		for i, c := range st.Children {
			if want := fmt.Sprintf("shard%d: ∪Tp", i); c.Op != want {
				t.Fatalf("workers=%d: child %d op = %q, want %q", workers, i, c.Op, want)
			}
		}
		if st.TuplesOut != int64(got.Len()) {
			t.Fatalf("workers=%d: concat tuplesOut = %d, want %d", workers, st.TuplesOut, got.Len())
		}
		// The concat's input is the shards' output: disjoint fact
		// ranges covering the whole result.
		if st.TuplesIn != int64(got.Len()) {
			t.Fatalf("workers=%d: shard outputs sum to %d, want %d", workers, st.TuplesIn, got.Len())
		}
		// The consumer's time blocked on the current shard is part of
		// the concat node's own wall time (which also carries the cut).
		if st.StallMicros > st.WallMicros {
			t.Fatalf("workers=%d: concat stalled %dµs of %dµs wall", workers, st.StallMicros, st.WallMicros)
		}
	}
}

// TestShardDrainedRecords pins the per-shard debug record a request
// logger receives: one per shard, carrying the shard's input rows (they
// sum to the leaves' rows — the cut covers every row once) and its
// output tuples (they sum to the result).
func TestShardDrainedRecords(t *testing.T) {
	db := traceDB(76, 2, 400, 32)
	tree := query.MustParse("r0 | r1")
	var buf bytes.Buffer // the handler serializes the producers' writes
	lg := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	got, err := New(Config{Workers: 3, MinPartitionSize: 8}).
		EvalCursorCtx(obs.WithLogger(context.Background(), lg), tree, db, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	shards, rows, tuples := 0, 0, 0
	for dec := json.NewDecoder(&buf); dec.More(); shards++ {
		var rec struct {
			Msg                 string
			Shard, Rows, Tuples int
		}
		if err := dec.Decode(&rec); err != nil || rec.Msg != "shard drained" {
			t.Fatalf("record %d: %+v, err %v", shards, rec, err)
		}
		rows += rec.Rows
		tuples += rec.Tuples
	}
	if want := db["r0"].Len() + db["r1"].Len(); shards < 2 || rows != want || tuples != got.Len() {
		t.Fatalf("%d shard records with %d rows and %d tuples, want >= 2 with %d rows and %d tuples",
			shards, rows, tuples, want, got.Len())
	}
}

// TestTraceGallopsRecorded pins that run-skipping sweeps surface their
// gallop counts in the trace: a highly fact-disjoint intersection takes
// SkipTo gallops, and the trace must show them on the operator node;
// a skip forwarded to a selection is counted on σ and on its scan.
func TestTraceGallopsRecorded(t *testing.T) {
	db := traceDB(74, 2, 400, 200) // many facts, sparse overlap
	tree := &query.SetOp{Op: core.OpIntersect,
		Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "r1"}}
	if _, st := evalTraced(t, New(Config{Workers: 1}), tree, db); st.Gallops == 0 {
		t.Fatal("sparse intersection recorded no gallops")
	}

	// A selection under an intersection: r0 holds 3,000 tuples of fact
	// a, r1 only a's last stretch and one tuple of fact b. The advancer's
	// source forwards its skip to σ, which gallops its buffered block and
	// forwards the rest to its scan, so σ counts at least the gallops its
	// scan answers and hands up only part of r0.
	r0 := relation.New(relation.NewSchema("r0", "F"))
	for i := 0; i < 3000; i++ {
		r0.AddBase(relation.NewFact("a"), fmt.Sprintf("x%d", i), int64(2*i), int64(2*i+1), 0.5)
	}
	r1 := relation.New(relation.NewSchema("r1", "F"))
	r1.AddBase(relation.NewFact("a"), "y0", 5990, 5992, 0.5)
	r1.AddBase(relation.NewFact("b"), "y1", 0, 10, 0.5)
	relation.InternAll(r0, r1)
	_, st := evalTraced(t, New(Config{Workers: 1}), query.MustParse("sigma[F='a'](r0) & r1"),
		map[string]*relation.Relation{"r0": r0, "r1": r1})
	sigma := st.Children[0]
	if len(sigma.Children) != 1 {
		t.Fatalf("σ node %q has %d children, want its scan", sigma.Op, len(sigma.Children))
	}
	scan := sigma.Children[0]
	if sigma.Op != "σ[F=a]" || scan.Op != "scan(r0)" {
		t.Fatalf("plan is %q over %q, want σ[F=a] over scan(r0)", sigma.Op, scan.Op)
	}
	if scan.Gallops == 0 || sigma.Gallops < scan.Gallops {
		t.Fatalf("σ took %d gallops, its scan %d; want σ ≥ scan > 0", sigma.Gallops, scan.Gallops)
	}
	if sigma.TuplesOut >= int64(r0.Len()) {
		t.Fatalf("σ handed up %d of %d rows; the skip did not reach it", sigma.TuplesOut, r0.Len())
	}
	t.Logf("σ: %d gallops, %d of %d rows handed up; scan: %d gallops", sigma.Gallops, sigma.TuplesOut, r0.Len(), scan.Gallops)
}
