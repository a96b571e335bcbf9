package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref"
	"github.com/tpset/tpset/internal/relation"
)

// TestConcurrentEvalStress runs many concurrent Apply and EvalCursor
// calls over shared input relations through one shared engine. It is the
// -race canary for the subsystem: inputs must be treated as read-only,
// and interleaved plans must not cross-talk. Outputs are checked against
// the oracle's precomputed answers.
func TestConcurrentEvalStress(t *testing.T) {
	r, s, db := randomPair(rand.New(rand.NewSource(31)), 2000, 37)
	q := query.MustParse("(r0 | r1) - (r0 & r1)")

	want := map[core.Op]*relation.Relation{}
	for _, op := range allOps {
		want[op] = ref.Apply(op, r, s)
	}
	wantQ, err := ref.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}

	shared := engine.New(engine.Config{Workers: 4, MinPartitionSize: 1})
	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Odd goroutines use their own engine so engine sharing and
			// engine construction are both exercised concurrently.
			e := shared
			if g%2 == 1 {
				e = engine.New(engine.Config{Workers: 2, MinPartitionSize: 1})
			}
			for i := 0; i < iters; i++ {
				op := allOps[(g+i)%len(allOps)]
				got, err := e.Apply(op, r, s, core.Options{})
				if err != nil {
					errc <- fmt.Errorf("g%d i%d %v: %v", g, i, op, err)
					return
				}
				if d := relation.Diff(got, want[op]); d != "" {
					errc <- fmt.Errorf("g%d i%d %v: %s", g, i, op, d)
					return
				}
				if i%3 == 0 {
					gotQ, err := e.EvalCursor(q, db, core.Options{})
					if err != nil {
						errc <- fmt.Errorf("g%d i%d eval: %v", g, i, err)
						return
					}
					if d := relation.Diff(gotQ, wantQ); d != "" {
						errc <- fmt.Errorf("g%d i%d eval: %s", g, i, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentSharedInputKeyCaching shares one pair of unbound input
// relations between concurrent operations: the Validate and AssumeSorted
// paths compute fact keys from rows they must only read (a tuple used to
// cache its key on first use, a write into the shared row; it now holds
// no key at all), and the race detector watches them do it.
func TestConcurrentSharedInputKeyCaching(t *testing.T) {
	bare := func(name string, n int) *relation.Relation {
		rel := relation.New(relation.NewSchema(name, "F"))
		for i := 0; i < n; i++ {
			base := relation.NewBase(relation.NewFact(fmt.Sprintf("f%02d", i%20)), fmt.Sprintf("%s%d", name, i),
				interval.Time(i/20*10), interval.Time(i/20*10+5), 0.5)
			rel.Add(relation.Tuple{Fact: base.Fact, Lineage: base.Lineage, T: base.T, Prob: base.Prob})
		}
		return rel
	}
	r, s := bare("r", 600), bare("s", 600)
	r.Sort()
	s.Sort()

	// Small worker budget and a tiny relation force the sequential
	// fallback; large MinPartitionSize keeps even 600 tuples below the
	// partitioning threshold.
	e := engine.New(engine.Config{Workers: 4, MinPartitionSize: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := core.Options{Validate: true}
			if g%2 == 0 {
				opts = core.Options{AssumeSorted: true}
			}
			if _, err := e.Apply(allOps[g%len(allOps)], r, s, opts); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// catalogPair prepares a generated pair the way catalog admission does —
// one dictionary, sorted, columnar — and freezes it, so any write through
// a shard view panics on top of being a race.
func catalogPair(r, s *relation.Relation) map[string]*relation.Relation {
	relation.InternAll(r, s)
	for _, x := range []*relation.Relation{r, s} {
		x.Sort()
		x.BuildCols()
		x.Freeze()
	}
	return map[string]*relation.Relation{"r0": r, "r1": s}
}

// TestConcurrentShardedPlansShareFrozenLeaves runs many sharded plans at
// once over one shared pair of frozen catalog relations. Every plan cuts
// its own views of the same rows and columns; under -race this proves the
// views never write through to the parent (no key caching, no rebinding),
// and every result is the oracle's.
func TestConcurrentShardedPlansShareFrozenLeaves(t *testing.T) {
	r, s, _ := randomPair(rand.New(rand.NewSource(37)), 3000, 41)
	db := catalogPair(r, s)
	trees := []query.Node{
		query.MustParse("(r0 | r1) - (r0 & r1)"),
		query.MustParse("r0 - (r0 & r1)"),
		query.MustParse("sigma[F='f007'](r0) | r1"),
	}
	want := make([]*relation.Relation, len(trees))
	for i, tree := range trees {
		var err error
		if want[i], err = ref.Eval(tree, db); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := engine.New(engine.Config{Workers: 2 + g%3, MinPartitionSize: 1})
			for i := 0; i < 12; i++ {
				k := (g + i) % len(trees)
				got, err := e.EvalCursor(trees[k], db, core.Options{AssumeSorted: true})
				if err != nil {
					errc <- fmt.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if d := relation.Diff(got, want[k]); d != "" {
					errc <- fmt.Errorf("g%d i%d %s: %s", g, i, trees[k], d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestShardProducersBoundedAndReleased pins the producer pool: a sharded
// plan with many more shards than workers never has more than Workers
// producers alive (+1 of slack for a goroutine mid-exit), and none once
// Close returns — after a full drain, after a Close before the first
// pull, and after the request context is cancelled mid-shard. Every
// pooled block comes back each time. No producer parks here: each of the
// 12 shards sends at most 8 blocks into a 42-block channel
// (reorderBlocks/workers). A producer parked on a full channel is
// TestProduceStopsWithoutAReader's case.
func TestShardProducersBoundedAndReleased(t *testing.T) {
	r, s := datagen.FixedOverlapPair(40000, 400, 7)
	db := catalogPair(r, s)
	tree := query.MustParse("r0 | r1")
	const workers = 3
	e := engine.New(engine.Config{Workers: workers})
	base := runtime.NumGoroutine()
	settle := func(label string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still alive after Close (baseline %d)", label, runtime.NumGoroutine(), base)
			}
		}
	}
	for _, scenario := range []string{"drain", "close-first", "cancel"} {
		gets0, puts0, _, _ := core.BatchPoolStats()
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := e.CursorCtx(ctx, tree, db, core.Options{AssumeSorted: true})
		if err != nil {
			t.Fatal(err)
		}
		b := core.GetBatch()
		pulled := 0
		for scenario != "close-first" && cur.NextBatch(b) {
			pulled += len(b.Tuples)
			if n := runtime.NumGoroutine(); n > base+workers+1 {
				t.Fatalf("%s: %d goroutines during the plan, want at most %d above the baseline %d", scenario, n-base, workers+1, base)
			}
			if scenario == "cancel" {
				cancel() // the producers stop; the stream ends early instead of hanging
			}
		}
		core.PutBatch(b)
		if scenario == "drain" && pulled < r.Len()+s.Len() {
			t.Fatalf("drain: %d tuples from a union over %d inputs", pulled, r.Len()+s.Len())
		}
		if scenario == "cancel" && pulled >= r.Len() {
			t.Fatalf("cancel: the stream ran to %d tuples after cancellation", pulled)
		}
		cur.Close()
		cancel()
		settle(scenario)
		if gets, puts, _, _ := core.BatchPoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("%s: pool unbalanced after Close: %d gets vs %d puts", scenario, gets-gets0, puts-puts0)
		}
	}
}
