package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/tpset/tpset/internal/core"
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

// TestConcurrentSharedInputKeyCaching targets the lazy Tuple.Key caching
// hazard: tuples constructed as bare literals have no cached fact key, and
// the Validate and AssumeSorted paths must not race on filling it when
// concurrent operations share one input relation.
func TestConcurrentSharedInputKeyCaching(t *testing.T) {
	bare := func(name string, n int) *relation.Relation {
		rel := relation.New(relation.NewSchema(name, "F"))
		for i := 0; i < n; i++ {
			base := relation.NewBase(relation.NewFact(fmt.Sprintf("f%02d", i%20)), fmt.Sprintf("%s%d", name, i),
				interval.Time(i/20*10), interval.Time(i/20*10+5), 0.5)
			// Strip the cached key: struct-literal construction (external
			// loaders, tests) leaves it empty.
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
