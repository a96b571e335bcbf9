package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// The differential harness: the engine's execution path — sequential
// plan and sharded plan, at every batch capacity, worker count, leaf
// binding and option the path has — checked against the Def. 3 oracle on
// random query trees over random catalogs and on the paper's Fig. 1
// fixtures. drain checks every block's binding on the way. Runs in
// CI's plain and -race lanes.

// shardingEngine cuts even the small harness catalogs into one shard per
// few tuples, so the sharded plan is what runs above one worker.
func shardingEngine(workers int) *engine.Engine {
	return engine.New(engine.Config{Workers: workers, MinPartitionSize: 1})
}

// drain pulls a plan dry through NextBatch at the given block capacity
// and returns the tuples in stream order. Every block must respect the
// capacity and be bound — a dictionary, the plan's one, and an fid
// column that mirrors its rows — whatever binding, order or option the
// inputs arrived with.
func drain(t *testing.T, ctx string, cur *engine.StreamCursor, capacity int) *relation.Relation {
	t.Helper()
	defer cur.Close()
	out := relation.New(cur.Schema())
	b := core.NewBatch(capacity)
	var dict *keys.Dict
	for cur.NextBatch(b) {
		if len(b.Tuples) == 0 || len(b.Tuples) > capacity {
			t.Fatalf("%s: NextBatch put %d tuples into a capacity-%d batch", ctx, len(b.Tuples), capacity)
		}
		if dict == nil {
			dict = b.Dict
		}
		if b.Dict == nil || b.Dict != dict || len(b.Fid) != len(b.Tuples) {
			t.Fatalf("%s: block at offset %d is not bound to the plan's dictionary (dict %p, plan %p, %d ids for %d rows)",
				ctx, out.Len(), b.Dict, dict, len(b.Fid), len(b.Tuples))
		}
		for i, id := range b.Fid {
			if id < 0 || id >= int64(dict.Len()) || dict.Key(keys.FactID(id)) != b.Tuples[i].Fact.Key() {
				t.Fatalf("%s: row %d of the block at offset %d: fid column holds %d, which does not name the fact of row %s",
					ctx, i, out.Len(), id, &b.Tuples[i])
			}
		}
		out.Tuples = append(out.Tuples, b.Tuples...)
	}
	if cur.NextBatch(b) {
		t.Fatalf("%s: NextBatch true after exhaustion", ctx)
	}
	return out
}

// TestEngineMatchesOracle is the main sweep. Per trial: one catalog
// (un-interned, interned into one dictionary, or mixed; sorted or in
// generation order; fact pools aligned or offset; every third with the
// relations' chains offset in time) and one tree with selections and
// repeats, run at Workers 1/2/3/8 × batch capacity
// 1/2/BatchSize × AssumeSorted off/on (on only over sorted catalogs),
// alternating eager and lazy probability valuation.
func TestEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		sh := reftest.Shape{
			Relations: 2 + rng.Intn(3), MaxTuples: 120, Facts: 24,
			OffsetFacts: trial%2 == 0,
			OffsetTime:  trial%3 == 1,
			Binding:     reftest.Binding(trial % 3),
			Sorted:      trial%4 < 2,
		}
		db := reftest.DB(rng, sh)
		tree := reftest.Tree(rng, query.DBKeys(db), 1+rng.Intn(4))
		_, isOp := tree.(*query.SetOp)
		run := 0
		for _, workers := range []int{1, 2, 3, 8} {
			for _, capacity := range []int{1, 2, core.BatchSize} {
				for _, assumeSorted := range []bool{false, true} {
					if assumeSorted && !sh.Sorted {
						continue
					}
					run++
					opts := core.Options{AssumeSorted: assumeSorted, LazyProb: run%2 == 0}
					ctx := fmt.Sprintf("trial %d (%s) binding=%d workers=%d cap=%d %+v",
						trial, tree, sh.Binding, workers, capacity, opts)
					cur, err := shardingEngine(workers).Cursor(tree, db, opts)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					got := drain(t, ctx, cur, capacity)
					if opts.LazyProb {
						for i := range got.Tuples {
							if isOp && got.Tuples[i].Prob != 0 {
								t.Fatalf("%s: lazy tuple %d carries probability %v", ctx, i, got.Tuples[i].Prob)
							}
						}
						got.ComputeProbs()
					}
					reftest.Check(t, ctx, got, tree, db)
				}
			}
		}
	}
}

// TestEngineSkewedCatalogsMatchOracle aims the harness at the cut: fact
// runs that dwarf a quantile step (Zipfian, and one fact holding most of
// a relation, so consecutive cuts coincide and empty shards are dropped),
// facts present in only one leaf (empty views inside a live shard),
// relations lying entirely below one another in fact order, selections
// over sharded leaves and repeated leaves — at Workers 2/3/8 with one
// tuple per shard allowed, AssumeSorted off and on, every binding.
func TestEngineSkewedCatalogsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	fixed := []string{"r0 - (r0 & r1)", "sigma[F='f012'](r0) | r1", "(r0 & r2) | (r1 - r2)", "r1"}
	for trial := 0; trial < 90; trial++ {
		sh := reftest.Shape{
			Relations: 3, MaxTuples: 150, Facts: 24,
			Skew:          reftest.Skew(trial % 3),
			OffsetFacts:   trial%2 == 0,
			DisjointFacts: trial%5 == 0,
			OffsetTime:    trial%4 == 1,
			Binding:       reftest.Binding(trial / 3 % 3),
			Sorted:        trial%4 != 3,
		}
		db := reftest.DB(rng, sh)
		tree := reftest.Tree(rng, query.DBKeys(db), 2+rng.Intn(3))
		if trial%3 == 0 {
			tree = query.MustParse(fixed[trial/3%len(fixed)])
		}
		run := 0
		for _, workers := range []int{2, 3, 8} {
			for _, assumeSorted := range []bool{false, true} {
				if assumeSorted && !sh.Sorted {
					continue
				}
				run++
				capacity := []int{1, 7, core.BatchSize}[run%3]
				opts := core.Options{AssumeSorted: assumeSorted}
				ctx := fmt.Sprintf("trial %d (%s) skew=%d binding=%d workers=%d cap=%d %+v",
					trial, tree, sh.Skew, sh.Binding, workers, capacity, opts)
				cur, err := shardingEngine(workers).Cursor(tree, db, opts)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				reftest.Check(t, ctx, drain(t, ctx, cur, capacity), tree, db)
			}
		}
	}
}

// TestEngineOffsetTimeCatalogsMatchOracle aims the harness at temporal
// run skipping: catalogs whose relations hold the same facts at
// different times (OffsetTime; uniform, Zipfian and one-heavy-fact
// runs), under each operation, under trees whose skipped side is a
// computed child or a selection over a leaf, and under random trees —
// at Workers 1/2/3/8 × batch capacity 1/2/7/BatchSize × AssumeSorted
// off/on. (That the sweep does skip on such inputs is pinned in counts
// by core's TestTimeRunSkippingBoundsTheSweep.)
func TestEngineOffsetTimeCatalogsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fixed := []string{
		"r0 & r1", "r1 - r0", "r0 | r1",
		"(r0 | r2) & r1", "r1 - (r0 | r2)", "(r0 - r2) & (r1 | r2)",
		"sigma[F='f003'](r0) & r1", "r1 - sigma[F='f005'](r0)",
	}
	for trial := 0; trial < 48; trial++ {
		sh := reftest.Shape{
			Relations: 3, MaxTuples: 160, Facts: 12,
			OffsetTime: true,
			Skew:       reftest.Skew(trial % 3),
			Binding:    reftest.Binding(trial / 3 % 3),
			Sorted:     trial%4 != 3,
		}
		db := reftest.DB(rng, sh)
		tree := reftest.Tree(rng, query.DBKeys(db), 2+rng.Intn(3))
		if trial%3 != 2 {
			tree = query.MustParse(fixed[trial%len(fixed)])
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, capacity := range []int{1, 2, 7, core.BatchSize} {
				for _, assumeSorted := range []bool{false, true} {
					if assumeSorted && !sh.Sorted {
						continue
					}
					opts := core.Options{AssumeSorted: assumeSorted}
					ctx := fmt.Sprintf("trial %d (%s) skew=%d binding=%d workers=%d cap=%d %+v",
						trial, tree, sh.Skew, sh.Binding, workers, capacity, opts)
					cur, err := shardingEngine(workers).Cursor(tree, db, opts)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					reftest.Check(t, ctx, drain(t, ctx, cur, capacity), tree, db)
				}
			}
		}
	}
}

// TestEngineTimeSkipCasesMatchOracle runs the fixed shapes of temporal
// run skipping — end points that coincide with start points, a skip that
// lands inside a tuple, into end-of-stream, within a single fact, and
// across exactly one scan block — through both plans, with the skipped
// side a leaf, a computed child and a selection.
func TestEngineTimeSkipCasesMatchOracle(t *testing.T) {
	cases, queries := reftest.TimeSkipCases()
	for _, tc := range cases {
		for _, src := range queries {
			tree := query.MustParse(src)
			for _, workers := range []int{1, 2} {
				for _, capacity := range []int{1, 7, core.BatchSize} {
					for _, assumeSorted := range []bool{false, true} {
						ctx := fmt.Sprintf("%s: %s workers=%d cap=%d assumeSorted=%v", tc.Name, src, workers, capacity, assumeSorted)
						cur, err := shardingEngine(workers).Cursor(tree, tc.DB, core.Options{AssumeSorted: assumeSorted})
						if err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
						reftest.Check(t, ctx, drain(t, ctx, cur, capacity), tree, tc.DB)
					}
				}
			}
		}
	}
}

// TestEngineFig1MatchesOracle runs the paper's own queries over the
// Fig. 1 relations through both plans.
func TestEngineFig1MatchesOracle(t *testing.T) {
	db, queries := reftest.Fig1()
	for _, src := range queries {
		tree := query.MustParse(src)
		for _, workers := range []int{1, 4} {
			got, err := shardingEngine(workers).EvalCursor(tree, db, core.Options{Validate: true})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", src, workers, err)
			}
			reftest.Check(t, fmt.Sprintf("%s workers=%d", src, workers), got, tree, db)
		}
	}
}

// TestEngineEmptyInputsMatchOracle pins the degenerate shapes: empty
// relations on either or both sides of every operation.
func TestEngineEmptyInputsMatchOracle(t *testing.T) {
	empty := relation.New(relation.NewSchema("e", "F"))
	full := relation.New(relation.NewSchema("f", "F"))
	full.AddBase(relation.NewFact("a"), "x1", 0, 5, 0.5)
	full.AddBase(relation.NewFact("b"), "x2", 2, 9, 0.7)
	db := map[string]*relation.Relation{"e": empty, "f": full}
	for _, src := range []string{"e & f", "f & e", "e | f", "f | e", "e - f", "f - e", "e & e", "e | e", "e - e", "e"} {
		tree := query.MustParse(src)
		for _, workers := range []int{1, 4} {
			for _, assumeSorted := range []bool{false, true} {
				ctx := fmt.Sprintf("%s workers=%d assumeSorted=%v", src, workers, assumeSorted)
				cur, err := shardingEngine(workers).Cursor(tree, db, core.Options{AssumeSorted: assumeSorted})
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				reftest.Check(t, ctx, drain(t, ctx, cur, 4), tree, db)
			}
		}
	}
}

// TestEngineEarlyCloseBalancesPool abandons plans across worker counts
// and abandon points: before the first pull, inside a block (one pull
// into a block of 1, 3 or 7 rows leaves the concatenation holding the
// rest of a shard's block), between blocks, and after a full drain.
// Close must release the shard producers without
// deadlock (-race additionally proves the teardown race-free), be
// idempotent, and hand every pooled block back: Close drains until every
// shard channel is closed, so the gets taken since the cursor was built
// all come back as puts the moment it returns (test blocks are unpooled
// and leave through the drop counter).
func TestEngineEarlyCloseBalancesPool(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		db := reftest.DB(rng, reftest.Shape{Relations: 3, MaxTuples: 2000, Facts: 48,
			Skew: reftest.Skew(trial / 3 % 3), Binding: reftest.Binding(trial % 3)})
		tree := reftest.Tree(rng, query.DBKeys(db), 3)
		for _, workers := range []int{1, 2, 8} {
			for _, pull := range []string{"none", "rows", "batch", "all"} {
				gets0, puts0, _, _ := core.BatchPoolStats()
				cur, err := shardingEngine(workers).Cursor(tree, db, core.Options{})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				switch pull {
				case "rows":
					cur.NextBatch(core.NewBatch([]int{1, 3, 7}[trial%3]))
				case "batch":
					b := core.GetBatch()
					for i := 1 + rng.Intn(3); i > 0 && cur.NextBatch(b); i-- {
					}
					core.PutBatch(b)
				case "all":
					core.Materialize(cur)
				}
				cur.Close()
				cur.Close() // idempotent, including the pool drain
				gets1, puts1, _, _ := core.BatchPoolStats()
				if gets1-gets0 != puts1-puts0 {
					t.Fatalf("trial %d (%s) workers=%d pull=%s: pool unbalanced after Close: %d gets vs %d puts",
						trial, tree, workers, pull, gets1-gets0, puts1-puts0)
				}
			}
		}
	}
}

// TestAssumeSortedLeavesAreBoundAndSharded pins the door PrepareLeaves
// closes: sorted leaves that arrive under AssumeSorted bound to
// different dictionaries — one of them unbound, one frozen — are cloned
// and bound to one dictionary (no sort), so the plan shards like any
// other and every block is bound; the inputs themselves keep their
// dictionary and their column storage and are not written.
func TestAssumeSortedLeavesAreBoundAndSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 20; trial++ {
		db := reftest.DB(rng, reftest.Shape{Relations: 4, MaxTuples: 200, Facts: 24,
			OffsetFacts: trial%2 == 0, Skew: reftest.Skew(trial % 3), Sorted: true})
		db["r0"].Intern() // its own dictionary
		db["r1"].Intern() // another one
		db["r2"].Intern()
		db["r2"].Freeze() // a third, frozen; r3 stays unbound
		type state struct {
			dict *keys.Dict
			fid  []int64
			rows []relation.Tuple
		}
		before := map[string]state{}
		for name, r := range db {
			before[name] = state{r.Dict(), r.FidCol(), append([]relation.Tuple(nil), r.Tuples...)}
		}
		tree := query.MustParse([]string{"(r0 | r1) - (r2 & r3)", "(r0 & r2) | (r3 - r1)", "r0 - (r1 | (r2 - r3))"}[trial%3])
		for _, workers := range []int{2, 3, 8} {
			ctx := fmt.Sprintf("trial %d (%s) workers=%d", trial, tree, workers)
			opts := core.Options{AssumeSorted: true, Span: obs.NewSpan("")}
			cur, err := shardingEngine(workers).Cursor(tree, db, opts)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			got := drain(t, ctx, cur, 1+rng.Intn(64))
			shards := 0
			for _, c := range opts.Span.Snapshot().Children {
				if strings.HasPrefix(c.Op, "shard") {
					shards++
				}
			}
			if shards < 2 {
				t.Fatalf("%s: %d shards; sorted leaves on different dictionaries must shard like any others", ctx, shards)
			}
			reftest.Check(t, ctx, got, tree, db)
		}
		for name, r := range db {
			was := before[name]
			if r.Dict() != was.dict || (r.FidCol() == nil) != (was.fid == nil) || (was.fid != nil && &r.FidCol()[0] != &was.fid[0]) {
				t.Fatalf("trial %d: input %s was re-bound", trial, name)
			}
			for i := range r.Tuples {
				if r.Tuples[i].T != was.rows[i].T || r.Tuples[i].Lineage != was.rows[i].Lineage {
					t.Fatalf("trial %d: row %d of input %s was written", trial, i, name)
				}
			}
		}
	}
}
