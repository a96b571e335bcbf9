package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tpset/tpset/internal/datagen"
)

// TestConcurrentQueriesAndLoadsRaceClean hammers one server from many
// goroutines mixing POST /query evaluations (through the service layer),
// relation replacements (version bumps + cache invalidation), stats reads
// and drops/reloads. Run under -race it checks the catalog/cache/engine
// locking discipline; functionally it checks that every query either
// completes against a consistent snapshot or fails with "unknown
// relation" (never a torn state).
func TestConcurrentQueriesAndLoadsRaceClean(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s := New(Config{Workers: 4, CacheSize: 32})
	seedRel := func(name string, seed int64) {
		r := datagen.Synthetic(datagen.SyntheticConfig{
			Name: name, NumTuples: 300, NumFacts: 12, MaxLen: 4, MaxGap: 2, Seed: seed,
		})
		if _, err := s.Load(name, r); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"r", "s", "u"} {
		seedRel(name, int64(i))
	}

	queries := []string{
		"r & s", "r | s", "r - s", "(r & s) | u", "u - (r | s)", "r & s",
	}
	const (
		goroutines = 8
		iters      = 40
	)
	var wg sync.WaitGroup
	var unknownRel atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 5 {
				case 0: // replace a relation: version bump + invalidation
					seedRel("s", int64(1000+g*iters+i))
				case 1: // drop and immediately reload
					if g == 0 && i%10 == 5 {
						s.Drop("u")
						seedRel("u", int64(2000+i))
					} else {
						_, _ = s.RunQueryCtx(context.Background(), QueryRequest{Query: queries[i%len(queries)]})
					}
				case 2: // stats + metrics readers
					if rel, _, ok := s.Relation("r"); ok && rel.Len() == 0 {
						t.Error("empty catalog relation")
					}
					_ = s.CacheStats()
					_ = s.Relations()
				default:
					resp, err := s.RunQueryCtx(context.Background(), QueryRequest{
						Query:    queries[(g*iters+i)%len(queries)],
						Workers:  1 + g%4,
						LazyProb: i%7 == 0,
					})
					if err != nil {
						// The only legal failure is racing a drop.
						if he, ok := err.(*httpError); !ok || he.status != 404 {
							t.Errorf("query error: %v", err)
						}
						unknownRel.Add(1)
						continue
					}
					if len(resp.Inputs) == 0 {
						t.Error("query response without version vector")
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The catalog is quiescent now: a repeated query must hit the cache.
	if _, err := s.RunQueryCtx(context.Background(), QueryRequest{Query: "r & s"}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.RunQueryCtx(context.Background(), QueryRequest{Query: "r & s"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeat on quiescent catalog must be a cache hit")
	}
	t.Logf("cache %+v, evaluations %d, unknown-relation races %d",
		s.CacheStats(), s.metrics.evaluations.Load(), unknownRel.Load())
}

// TestCachedResultStableAcrossConcurrentRepeats issues the same query from
// many goroutines at once. Several evaluations may race before the first
// cache store lands, but every returned result — evaluated or cached —
// must be identical.
func TestCachedResultStableAcrossConcurrentRepeats(t *testing.T) {
	s := New(Config{Workers: 2})
	for i, name := range []string{"r", "s"} {
		r := datagen.Synthetic(datagen.SyntheticConfig{
			Name: name, NumTuples: 500, NumFacts: 10, MaxLen: 4, MaxGap: 2, Seed: int64(i),
		})
		if _, err := s.Load(name, r); err != nil {
			t.Fatal(err)
		}
	}
	const n = 16
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.RunQueryCtx(context.Background(), QueryRequest{Query: "r & s"})
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			results[i] = string(resp.Result)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
}
