package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// Tests of the cut itself: what the shard views cover, what they alias
// and what a plan over them costs. Result correctness is the oracle
// harness's job (oracle_test.go).

// TestCutCoversLeavesAtFactEdges checks the cut's contract on skewed
// catalogs: per leaf the views are consecutive and cover every row
// exactly once, no fact spans two shards, shard fact ranges ascend, no
// shard is empty across all leaves, and a fact heavier than a quantile
// step costs shards instead of breaking any of that.
func TestCutCoversLeavesAtFactEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		sh := reftest.Shape{Relations: 3, MaxTuples: 300, Facts: 20, Binding: reftest.Shared, Sorted: true,
			Skew: reftest.Skew(trial % 3), OffsetFacts: trial%2 == 0, DisjointFacts: trial%5 == 0}
		db := reftest.DB(rng, sh)
		for _, r := range db {
			r.BuildCols() // cut reads prepared leaves: it gallops their fid columns
		}
		names := query.DBKeys(db)
		plan := query.MustParse("(r0 | r1) | r2") // a union's sweep reads every row
		e := New(Config{Workers: 8, MinPartitionSize: 1})
		shards := e.cut(plan, db)
		total := 0
		for _, r := range db {
			total += r.Len()
		}
		k := e.shardCount(plan, db)
		if len(shards) == 0 || len(shards) > k {
			t.Fatalf("trial %d: %d shards for %d tuples (shard count %d)", trial, len(shards), total, k)
		}
		if sh.Skew == reftest.Heavy && len(shards) == k && total > 64 {
			t.Fatalf("trial %d: a fact with most of the tuples dropped no shard (%d)", trial, len(shards))
		}
		next := map[string]int{} // rows of each leaf covered so far
		prevMax := int64(-1)
		for i, sdb := range shards {
			rows := 0
			lo, hi := int64(-1), int64(-1)
			for _, name := range names {
				v, parent := sdb[name], db[name]
				if !v.Frozen() || v.Dict() != parent.Dict() {
					t.Fatalf("trial %d shard %d: view of %s is not a frozen view on the parent's dictionary", trial, i, name)
				}
				if v.Len() == 0 {
					continue
				}
				fid := v.FidCol()
				if fid == nil || &fid[0] != &parent.FidCol()[next[name]] {
					t.Fatalf("trial %d shard %d: view of %s does not alias the parent's fid column at row %d", trial, i, name, next[name])
				}
				if &v.Tuples[0] != &parent.Tuples[next[name]] {
					t.Fatalf("trial %d shard %d: view of %s does not start at parent row %d", trial, i, name, next[name])
				}
				next[name] += v.Len()
				rows += v.Len()
				if first := fid[0]; lo < 0 || first < lo {
					lo = first
				}
				hi = max(hi, fid[len(fid)-1])
			}
			if rows == 0 {
				t.Fatalf("trial %d: shard %d is empty in every leaf", trial, i)
			}
			if prevMax >= lo {
				t.Fatalf("trial %d: shard %d starts at fact %d, not after shard %d's %d", trial, i, lo, i-1, prevMax)
			}
			prevMax = hi
		}
		for _, name := range names {
			if next[name] != db[name].Len() {
				t.Fatalf("trial %d: views of %s cover %d of %d rows", trial, name, next[name], db[name].Len())
			}
		}
	}
}

// TestCutFallsBackToSequential pins when the engine does not shard: a
// worker budget of one, an input below the threshold. (Leaves without a
// common dictionary are bound by PrepareLeaves before the cut sees them:
// TestAssumeSortedLeavesAreBoundAndSharded.)
func TestCutFallsBackToSequential(t *testing.T) {
	db := reftest.DB(rand.New(rand.NewSource(92)), reftest.Shape{Relations: 2, MaxTuples: 200, Facts: 16, Binding: reftest.Shared, Sorted: true})
	for _, r := range db {
		r.BuildCols()
	}
	plan := query.MustParse("r0 | r1")
	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"one worker", Config{Workers: 1, MinPartitionSize: 1}},
		{"below threshold", Config{Workers: 4}},
	} {
		if shards := New(tc.cfg).cut(plan, db); shards != nil {
			t.Fatalf("%s: cut into %d shards, want the sequential plan", tc.label, len(shards))
		}
	}
	if shards := New(Config{Workers: 4, MinPartitionSize: 1}).cut(plan, db); len(shards) < 2 {
		t.Fatalf("control: %d shards over a shared-dictionary catalog", len(shards))
	}
}

// restored returns a frozen copy of the sorted, bound relation r whose
// fid column is a caller-owned slab installed with SetBinding — what the
// segment store hands the catalog after a restore — and the slab.
func restored(t *testing.T, r *relation.Relation) (*relation.Relation, []int64) {
	t.Helper()
	slab := make([]int64, r.Len())
	copy(slab, r.FidCol())
	m := r.Clone()
	if err := m.SetBinding(r.Dict(), slab); err != nil {
		t.Fatal(err)
	}
	m.Freeze()
	return m, slab
}

// inside reports whether p points into the n-element array starting at
// base whose elements are size bytes wide.
func inside(p, base unsafe.Pointer, n int, size uintptr) bool {
	return uintptr(p) >= uintptr(base) && uintptr(p) < uintptr(base)+uintptr(n)*size
}

// TestShardedPlanScansTheInstalledColumn is the zero-copy pin for restored
// relations: a sharded plan over frozen, SetBinding-installed leaves scans
// the installed column itself. Every shard view is frozen, and its scan
// batches alias the parent's tuple array and the caller's slab.
func TestShardedPlanScansTheInstalledColumn(t *testing.T) {
	src := reftest.DB(rand.New(rand.NewSource(93)), reftest.Shape{Relations: 2, MaxTuples: 3000, Facts: 64, Binding: reftest.Shared, Sorted: true})
	db := map[string]*relation.Relation{}
	slabs := map[string][]int64{}
	for name, r := range src {
		db[name], slabs[name] = restored(t, r)
	}
	e := New(Config{Workers: 4, MinPartitionSize: 1})
	names := query.DBKeys(db)
	shards := e.cut(query.MustParse("r0 | r1"), db)
	if len(shards) < 2 {
		t.Fatalf("cut into %d shards, want a sharded plan", len(shards))
	}
	b := core.NewBatch(64)
	for i, sdb := range shards {
		for _, name := range names {
			v, parent, slab := sdb[name], db[name], slabs[name]
			if !v.Frozen() {
				t.Fatalf("shard %d: view of %s is not frozen", i, name)
			}
			scan, err := query.BuildPrepared(&query.Rel{Name: name}, sdb, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for scan.NextBatch(b) {
				if !inside(unsafe.Pointer(&b.Tuples[0]), unsafe.Pointer(&parent.Tuples[0]), parent.Len(), unsafe.Sizeof(relation.Tuple{})) {
					t.Fatalf("shard %d: scan of %s copied its tuples", i, name)
				}
				if b.Dict != parent.Dict() || !inside(unsafe.Pointer(&b.Fid[0]), unsafe.Pointer(&slab[0]), len(slab), 8) {
					t.Fatalf("shard %d: scan of %s: fid column is not the installed slab", i, name)
				}
			}
		}
	}
	tree := query.MustParse("(r0 & r1) | (r0 - r1)")
	got, err := e.EvalCursor(tree, db, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	reftest.Check(t, "restored leaves", got, tree, src)
	for name, r := range db {
		if !r.Frozen() || r.FidCol() == nil {
			t.Fatalf("%s: the plan disturbed the restored relation", name)
		}
	}
}

// catalogStyle binds the relations to one dictionary, sorts them and
// builds their fid columns — what admission does to catalog relations.
func catalogStyle(rels ...*relation.Relation) {
	relation.InternAll(rels...)
	for _, x := range rels {
		x.Sort()
		x.BuildCols()
	}
}

// sparsePair generates the sparse-stream shape (Table III overlap 0.03)
// as the catalog holds it.
func sparsePair(n int) map[string]*relation.Relation {
	r, s := datagen.Pair(datagen.PairConfig{NumTuples: n, NumFacts: n / 100, MaxLenR: 100, MaxLenS: 3, MaxGap: 3, Seed: 1000})
	catalogStyle(r, s)
	return map[string]*relation.Relation{"r": r, "s": s}
}

// allocated returns the bytes fn allocates, the least of three runs so a
// garbage collection emptying the batch pool mid-run does not count.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestShardedPlanAllocs pins the cost the cut removed: planning and
// draining a ∩Tp over 2×200K sorted tuples whose runs overlap in time
// — the sweep reads every row, so the plan shards — allocates less than
// 1 MiB however many shards run it (the hash partition copied ~57 MB
// per query), and the plan step alone does not grow with the input.
func TestShardedPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled blocks are reallocated")
	}
	tree := query.MustParse("r & s")
	opts := core.Options{AssumeSorted: true}
	small, large := meetingPair(20000, 200, false), meetingPair(200000, 2000, false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{2, 8} {
		e := New(Config{Workers: workers, MinPartitionSize: 1024})
		if k := e.shardCount(tree, large); k != workers*shardsPerWorker {
			t.Fatalf("workers=%d: %d shards, want %d", workers, k, workers*shardsPerWorker)
		}
		drain := func() {
			got, err := e.EvalCursor(tree, large, opts)
			if err != nil || got.Len() == 0 {
				t.Fatalf("workers=%d: %d tuples, err %v", workers, got.Len(), err)
			}
		}
		drain() // warm the batch pool
		total := allocated(drain)
		if total >= 1<<20 {
			t.Fatalf("workers=%d: plan + drain allocated %d bytes, want < 1 MiB", workers, total)
		}
		// The plan step alone: under a cancelled context the producers
		// return at once, so what is measured is cut + shard plans +
		// channels.
		plan := func(db map[string]*relation.Relation) func() {
			return func() {
				cur, err := e.CursorCtx(cancelled, tree, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				cur.Close()
			}
		}
		atSmall, atLarge := allocated(plan(small)), allocated(plan(large))
		if d := float64(atLarge) / float64(atSmall); d < 0.9 || d > 1.1 {
			t.Fatalf("workers=%d: plan allocates %d bytes at 20K tuples per leaf, %d at 200K; want equal ±10%%",
				workers, atSmall, atLarge)
		}
		t.Logf("workers=%d: plan + drain %d B; plan alone %d B at 20K tuples per leaf, %d B at 200K", workers, total, atSmall, atLarge)
	}
}

// TestSequentialPlanAllocs is TestShardedPlanAllocs' twin on the
// sparse-stream shape (Table III overlap 0.03, 2×200K tuples), whose
// ∩Tp the run index bounds to a few hundred rows: at two and eight
// workers, even at a 1,024-row minimum partition, the engine runs the
// sequential plan, so planning and draining it allocates exactly what
// it does at one worker.
func TestSequentialPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled blocks are reallocated")
	}
	tree := query.MustParse("r & s")
	opts := core.Options{AssumeSorted: true}
	db := sparsePair(200000)
	var allocs, bytes [3]float64
	for i, workers := range []int{1, 2, 8} {
		e := New(Config{Workers: workers, MinPartitionSize: 1024})
		if k := e.shardCount(tree, db); k > 1 {
			t.Fatalf("workers=%d: %d shards, want the sequential plan", workers, k)
		}
		drain := func() {
			got, err := e.EvalCursor(tree, db, opts)
			if err != nil || got.Len() == 0 {
				t.Fatalf("workers=%d: %d tuples, err %v", workers, got.Len(), err)
			}
		}
		drain() // warm the batch pool
		allocs[i], bytes[i] = testing.AllocsPerRun(20, drain), float64(allocated(drain))
	}
	if allocs[1] != allocs[0] || allocs[2] != allocs[0] || bytes[1] != bytes[0] || bytes[2] != bytes[0] {
		t.Fatalf("plan + drain at workers 1, 2, 8: %v allocations, %v B; want the same at every budget", allocs, bytes)
	}
	t.Logf("plan + drain at every budget: %v allocations, %v B", allocs[0], bytes[0])
}

// meetingPair returns, catalog style, r and s of n tuples each spread
// over facts facts that both relations hold, plus one s tuple that
// meets r's first, so r ∩Tp s has exactly one row whatever the fact
// count. Apart, every r tuple of a fact ends before the fact's s tuples
// start, and the sweep is two run skips per fact: only the first fact's
// runs overlap in time, so the plan has almost no rows to share and
// runs sequentially. Otherwise the s tuples fill the gaps between the r
// tuples: no two meet, but every fact's runs overlap in time, so the
// sweep reads every row and the plan shards.
func meetingPair(n, facts int, apart bool) map[string]*relation.Relation {
	r, s := relation.New(relation.NewSchema("r", "F")), relation.New(relation.NewSchema("s", "F"))
	per := int64(n / facts)
	at := int64(1) // s's first start
	if apart {
		at = 2 * per
	}
	for f := 0; f < facts; f++ {
		fact := relation.NewFact(fmt.Sprintf("f%05d", f))
		for j := int64(0); j < per; j++ {
			r.AddBase(fact, fmt.Sprintf("r%d.%d", f, j), 2*j, 2*j+1, 0.5)
			s.AddBase(fact, fmt.Sprintf("s%d.%d", f, j), at+2*j, at+2*j+1, 0.5)
		}
	}
	s.AddBase(r.Tuples[0].Fact, "s.meet", 0, 1, 0.5)
	catalogStyle(r, s)
	return map[string]*relation.Relation{"r": r, "s": s}
}

// TestRunIndexBuiltOncePerRelation pins "once per relation, never per
// query" without a clock: after a first query has built the leaves'
// fact-run indexes, planning and draining r ∩Tp s over 2×20K catalog
// tuples allocates the same number of times, and within a few percent
// the same bytes, whether the tuples spread over 200 facts or 2,000 —
// an index built per query, or one that grows, would add bytes in
// proportion to the facts — and the leaves keep the index the first
// query published. It holds for a pair held apart in time, which runs
// sequentially at every budget, and for one whose runs overlap, which
// two workers shard.
func TestRunIndexBuiltOncePerRelation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled blocks are reallocated")
	}
	tree := query.MustParse("r & s")
	opts := core.Options{AssumeSorted: true}
	for _, apart := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			e := New(Config{Workers: workers})
			var allocs [2]float64
			var bytes [2]uint64
			for i, facts := range []int{200, 2000} {
				db := meetingPair(20000, facts, apart)
				if sharded := e.shardCount(tree, db) >= 2; sharded != (!apart && workers > 1) {
					t.Fatalf("apart=%v, workers=%d, %d facts: sharded %v", apart, workers, facts, sharded)
				}
				drain := func() {
					got, err := e.EvalCursor(tree, db, opts)
					if err != nil || got.Len() != 1 {
						t.Fatalf("apart=%v, workers=%d, %d facts: %d tuples, err %v; want the one meeting", apart, workers, facts, got.Len(), err)
					}
				}
				drain() // builds the indexes and warms the batch pool
				built := [2]*relation.Runs{db["r"].Runs(), db["s"].Runs()}
				allocs[i] = testing.AllocsPerRun(20, drain)
				bytes[i] = allocated(drain)
				if db["r"].Runs() != built[0] || db["s"].Runs() != built[1] || built[0].Len() != facts {
					t.Fatalf("apart=%v, workers=%d, %d facts: the queries replaced the index the first one published", apart, workers, facts)
				}
			}
			if d := float64(bytes[1]) / float64(bytes[0]); allocs[0] != allocs[1] || d < 0.95 || d > 1.05 {
				t.Fatalf("apart=%v, workers=%d: plan + drain made %v allocations (%d B) at 200 facts and %v (%d B) at 2,000; want the same count and bytes within 5%%",
					apart, workers, allocs[0], bytes[0], allocs[1], bytes[1])
			}
			t.Logf("apart=%v, workers=%d: plan + drain %v allocations, %d B at 200 facts, %d B at 2,000", apart, workers, allocs[0], bytes[0], bytes[1])
		}
	}
}

// TestMaterializeAllocatesTheResultOnce pins the materializing drain: a
// dense r | s over 2×50K catalog-style leaves allocates its result — the
// tuple array and the fid column beside it — once each, at their exact
// size, and hands it over bound: under 1.5× the two arrays plus the
// lineage nodes the union must create. Appending block by block (the materializer
// before this pin) regrew the array ~22 times and allocated ≈5× its final
// size.
func TestMaterializeAllocatesTheResultOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled blocks are reallocated")
	}
	r, s := datagen.FixedOverlapPair(50000, 500, 7)
	catalogStyle(r, s)
	db := map[string]*relation.Relation{"r": r, "s": s}
	tree := query.MustParse("r | s")
	e := New(Config{Workers: 2})
	var out *relation.Relation
	drain := func() {
		var err error
		if out, err = e.EvalCursor(tree, db, core.Options{AssumeSorted: true}); err != nil {
			t.Fatal(err)
		}
	}
	drain() // warm the batch pool: the drain keeps a result's worth of blocks
	total := allocated(drain)
	if out.Len() < r.Len() || cap(out.Tuples) != len(out.Tuples) {
		t.Fatalf("result of %d rows in an array of %d, want a dense result in an exact array", len(out.Tuples), cap(out.Tuples))
	}
	if fid := out.FidCol(); fid == nil || out.Dict() != r.Dict() || len(fid) != out.Len() || cap(fid) != len(fid) {
		t.Fatalf("result of %d rows arrives with a column of %d ids (cap %d) on dict %p, want it bound to the leaves' dictionary by an exact column",
			out.Len(), len(fid), cap(fid), out.Dict())
	}
	derived := 0
	for i := range out.Tuples {
		if out.Tuples[i].Lineage.Kind() != lineage.KindVar {
			derived++
		}
	}
	array := uint64(out.Len()) * uint64(unsafe.Sizeof(relation.Tuple{})+unsafe.Sizeof(int64(0)))
	budget := array*3/2 + uint64(derived)*uint64(unsafe.Sizeof(lineage.Expr{}))
	if total >= budget {
		t.Fatalf("plan + drain allocated %d bytes for a %d bytes of result rows and ids and %d lineage nodes, want < %d (1.5× the arrays + the nodes; the drain that regrew its array block by block allocated 47.6 MB here, ≈5× the array)",
			total, array, derived, budget)
	}
	t.Logf("%d rows: %d B allocated, result rows + ids %d B, %d lineage nodes", out.Len(), total, array, derived)
}

// TestMaterializeLeavesFrozenLeavesUntouched materializes plans whose
// root blocks are views of the leaves themselves — a bare scan, and a
// selection over one — over frozen relations whose fid column aliases a
// caller slab (what the segment store restores). Sequentially the
// materializer is handed the views and keeps them until it has counted
// the result; not a byte of the leaf or the slab may change, and the
// result may not alias either.
func TestMaterializeLeavesFrozenLeavesUntouched(t *testing.T) {
	src := reftest.DB(rand.New(rand.NewSource(94)), reftest.Shape{Relations: 1, MaxTuples: 6000, Facts: 64, Binding: reftest.Shared, Sorted: true})
	leaf, slab := restored(t, src["r0"])
	db := map[string]*relation.Relation{"r0": leaf}
	size := unsafe.Sizeof(relation.Tuple{})
	rows := func() []byte {
		return unsafe.Slice((*byte)(unsafe.Pointer(&leaf.Tuples[0])), uintptr(leaf.Len())*size)
	}
	rowsBefore, slabBefore := bytes.Clone(rows()), slices.Clone(slab)
	for _, q := range []string{"r0", "sigma[F='f007'](r0)"} {
		tree := query.MustParse(q)
		for _, workers := range []int{1, 4} {
			got, err := New(Config{Workers: workers, MinPartitionSize: 1}).EvalCursor(tree, db, core.Options{AssumeSorted: true})
			if err != nil {
				t.Fatal(err)
			}
			reftest.Check(t, q, got, tree, src)
			if got.Len() == 0 || cap(got.Tuples) != len(got.Tuples) {
				t.Fatalf("%s, workers=%d: %d rows in an array of %d", q, workers, len(got.Tuples), cap(got.Tuples))
			}
			if inside(unsafe.Pointer(&got.Tuples[0]), unsafe.Pointer(&leaf.Tuples[0]), leaf.Len(), size) {
				t.Fatalf("%s, workers=%d: the result aliases the leaf", q, workers)
			}
			if !bytes.Equal(rows(), rowsBefore) || !slices.Equal(slab, slabBefore) {
				t.Fatalf("%s, workers=%d: the drain wrote to the frozen leaf", q, workers)
			}
		}
	}
}

// shardLogBomb is a log handler that panics on the "shard drained" debug
// record of one shard. The producer writes that record, so the panic is
// raised on a producer's goroutine with no hook in the engine.
type shardLogBomb struct{ shard int64 }

func (h shardLogBomb) Enabled(context.Context, slog.Level) bool { return true }
func (h shardLogBomb) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h shardLogBomb) WithGroup(string) slog.Handler            { return h }
func (h shardLogBomb) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "shard" && a.Value.Int64() == h.shard {
			var empty []int
			_ = empty[h.shard]
		}
		return true
	})
	return nil
}

// TestShardProducerPanicSurfacesOnConsumer raises a panic on a shard
// producer's goroutine while later shards are still being swept. It must
// reach the goroutine draining the plan — as a *core.PlanPanic carrying
// the original value and the producer's stack — instead of ending the
// process; afterwards no producer is left running and every pooled block
// is back.
func TestShardProducerPanicSurfacesOnConsumer(t *testing.T) {
	r, s := datagen.FixedOverlapPair(20000, 200, 7)
	catalogStyle(r, s)
	db := map[string]*relation.Relation{"r": r, "s": s}
	tree := query.MustParse("r | s")
	ctx := obs.WithLogger(context.Background(), slog.New(shardLogBomb{shard: 1}))
	for _, workers := range []int{2, 3} {
		base := runtime.NumGoroutine()
		gets0, puts0, _, _ := core.BatchPoolStats()
		var raised any
		func() {
			defer func() { raised = recover() }()
			out, err := New(Config{Workers: workers, MinPartitionSize: 1}).EvalCursorCtx(ctx, tree, db, core.Options{AssumeSorted: true})
			t.Errorf("workers=%d: EvalCursorCtx returned (%d rows, %v), want the producer's panic", workers, out.Len(), err)
		}()
		p, _ := raised.(*core.PlanPanic)
		var rte runtime.Error
		if p == nil || !errors.As(p, &rte) || !strings.Contains(string(p.Stack), "engine.produce") {
			t.Fatalf("workers=%d: recovered %v, want a *core.PlanPanic with the producer's runtime error and stack", workers, raised)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines alive after the panic (baseline %d)", workers, runtime.NumGoroutine(), base)
			}
		}
		if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("workers=%d: pool unbalanced after the panic: %d gets vs %d puts", workers, gets-gets0, puts-puts0)
		}
	}
}

// cancelAfter cancels the request just before the n-th pull of the
// cursor it wraps — a client going away while its result is drained.
type cancelAfter struct {
	core.Cursor
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) NextBatch(b *core.Batch) bool {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Cursor.NextBatch(b)
}

// TestMaterializeCancelledMidDrain cancels the request while the
// materializer is keeping blocks: the drain ends early and reports a
// complete-looking (ok) but truncated relation — which is why callers
// check ctx.Err before trusting it — and every kept and queued block
// goes back to the pool.
func TestMaterializeCancelledMidDrain(t *testing.T) {
	r, s := datagen.FixedOverlapPair(20000, 200, 7)
	catalogStyle(r, s)
	db := map[string]*relation.Relation{"r": r, "s": s}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gets0, puts0, _, _ := core.BatchPoolStats()
	cur, err := New(Config{Workers: 2, MinPartitionSize: 1}).CursorCtx(ctx, query.MustParse("r | s"), db, core.Options{AssumeSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	out := core.Materialize(&cancelAfter{Cursor: cur, n: 8, cancel: cancel})
	cur.Close()
	if ctx.Err() == nil || out.Len() != 7*core.BatchSize || cap(out.Tuples) != len(out.Tuples) {
		t.Fatalf("ctx.Err()=%v, %d rows in an array of %d; want the 7 blocks drained before the cancellation", ctx.Err(), out.Len(), cap(out.Tuples))
	}
	if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
		t.Fatalf("pool unbalanced after the cancelled drain: %d gets vs %d puts", gets-gets0, puts-puts0)
	}
}

// secondPull closes refilling when the second pull on the cursor it wraps
// begins: produce has sent its first block by then and passed its last
// check before the next send.
type secondPull struct {
	core.Cursor
	pulls     int // produce's goroutine only
	refilling chan struct{}
}

func (c *secondPull) NextBatch(b *core.Batch) bool {
	if c.pulls++; c.pulls == 2 {
		close(c.refilling)
	}
	return c.Cursor.NextBatch(b)
}

// TestProduceStopsWithoutAReader pins produce's contract that it returns
// when the request is cancelled or the stream closed, on the path where
// that matters: the producer is parked on a full shard channel and
// nobody reads it. Close's channel drain would unblock even a bare send,
// so nothing here reads the channel until produce has returned.
func TestProduceStopsWithoutAReader(t *testing.T) {
	r, s := datagen.FixedOverlapPair(8*core.BatchSize, 80, 7)
	catalogStyle(r, s)
	for _, stop := range []string{"cancel", "close"} {
		gets0, puts0, _, _ := core.BatchPoolStats()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		ch := make(chan *core.Batch, 1)
		cur := &secondPull{Cursor: core.NewScanCursor(r, nil), refilling: make(chan struct{})}
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			produce(ctx, done, 0, cur, nil, ch, nil, new(core.PanicRelay))
		}()
		select { // the first block fills the slot; the second will park
		case <-cur.refilling:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the producer never filled its channel", stop)
		}
		if stop == "cancel" {
			cancel()
		} else {
			close(done)
		}
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: producer still blocked on its send", stop)
		}
		for b := range ch {
			core.PutBatch(b)
		}
		<-returned
		cancel()
		if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("%s: pool unbalanced after the producer returned: %d gets vs %d puts", stop, gets-gets0, puts-puts0)
		}
	}
}
