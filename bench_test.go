package tpset_test

// Ablation benchmarks for the design choices DESIGN.md calls out, and
// the in-tree instruments of two standing-benchmark operations. The
// paper's figures are timed by cmd/tpbench (`tpbench -exp fig7a -scale
// 0.02`), not here.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

// BenchmarkAblationFusedFilter compares LAWA's fused window→filter→lineage
// pipeline against a decoupled variant that first materializes all windows
// and then filters — quantifying the benefit of finalizing lineage at
// window-creation time.
func BenchmarkAblationFusedFilter(b *testing.B) {
	r, s := datagen.FixedOverlapPair(100000, 1, 1)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Intersect(r, s, core.Options{LazyProb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoupled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ws := core.Windows(r, s)
			out := relation.New(r.Schema)
			for _, w := range ws {
				if w.LamR != nil && w.LamS != nil {
					out.Tuples = append(out.Tuples,
						relation.NewDerivedLazy(w.Fact, nil, w.Interval()))
				}
			}
		}
	})
}

// BenchmarkAblationProbEval compares eager 1OF probability valuation
// against the lazy (deferred) mode on set-operation outputs.
func BenchmarkAblationProbEval(b *testing.B) {
	r, s := datagen.FixedOverlapPair(100000, 1, 1)
	b.Run("eager1OF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Union(r, s, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Union(r, s, core.Options{LazyProb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPresorted isolates the sort step of Fig. 5: runs with
// AssumeSorted on pre-sorted inputs vs the default clone-and-sort.
func BenchmarkAblationPresorted(b *testing.B) {
	r, s := datagen.FixedOverlapPair(100000, 1, 1)
	rs, ss := r.Clone(), s.Clone()
	rs.Sort()
	ss.Sort()
	b.Run("sortIncluded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Intersect(r, s, core.Options{LazyProb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("presorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Intersect(rs, ss, core.Options{AssumeSorted: true, LazyProb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same inputs with two-attribute facts and no dictionary: a row's
	// key is computed (an allocation), not cached, so prepare must compute
	// it once per row — a Key() per compare or a second one per row shows
	// here in allocs/op and ns/op.
	twoAttr := func(in *relation.Relation) *relation.Relation {
		out := relation.New(relation.NewSchema(in.Schema.Name, "F", "G"))
		for i, t := range in.Tuples {
			t.Fact = relation.NewFact(t.Fact[0], fmt.Sprintf("g%d", i%7))
			out.Tuples = append(out.Tuples, t)
		}
		return out
	}
	r2, s2 := twoAttr(r), twoAttr(s)
	b.Run("sortIncluded-2attr-unbound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Intersect(r2, s2, core.Options{LazyProb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCountingSort times relation.Sort on a shuffled
// single-fact relation twice: as generated — start points dense enough
// that the sort's counting step (§VI-B: "a variant of counting-based
// sorting could also be used, and in this case the corresponding
// complexity is even linear") orders the one bucket without a compare —
// and with every time point multiplied by 32, which is the same
// permutation over a domain too sparse for the step, so the bucket is
// comparison-sorted. The input decides; there is no switch.
func BenchmarkAblationCountingSort(b *testing.B) {
	r, _ := datagen.FixedOverlapPair(200000, 1, 1)
	// The generator emits tuples in start-point order, which a pattern-
	// defeating quicksort handles in near-linear time; shuffle so both
	// shapes face the general case.
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(r.Tuples), func(i, j int) {
		r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i]
	})
	sparse := r.Clone()
	for i := range sparse.Tuples {
		sparse.Tuples[i].T.Ts *= 32
		sparse.Tuples[i].T.Te *= 32
	}
	for _, shape := range []struct {
		name string
		r    *relation.Relation
	}{{"comparison", sparse}, {"counting", r}} {
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := shape.r.Clone()
				b.StartTimer()
				c.Sort()
			}
		})
	}
}

// BenchmarkEvalLibShape is the in-tree instrument for the standing
// benchmark's lib-setops operation: tpset.Eval of "(a | b) - (c & d)"
// over a Webkit relation in generation order and three Shifted copies
// that are sorted and on its dictionary, so one iteration is one sorted
// leaf copy (the three ordered leaves are read in place), the sharded
// sweep and the materializing drain. B/op is the number to
// watch: the drain is absent from the benchmark's layer budget
// (engine.alloc_bytes_per_op pulls blocks and drops them), so a
// materializer that regrows or double-copies its result shows only here.
func BenchmarkEvalLibShape(b *testing.B) {
	a := datagen.Webkit(datagen.WebkitConfig{NumTuples: 20000, Seed: 1000})
	a.Schema.Name = "a"
	db := map[string]*relation.Relation{"a": a}
	for i, name := range []string{"b", "c", "d"} {
		r := datagen.Shifted(a, name, 1001+int64(i))
		r.Schema.Name = name
		db[name] = r
	}
	q := tpset.MustParseQuery("(a | b) - (c & d)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := tpset.Eval(q, db)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkIntersectSparseShape is the in-tree instrument for the
// standing benchmark's sparse-stream operation: r ∩Tp s over its Table
// III shape (overlapping factor 0.03) at 2×20K tuples and 200 facts —
// nearly every fact is in both relations, at different times, and the
// result has about a hundred tuples. "unsorted" is the operation as a
// library caller meets it (clone + sort + sweep); "catalog" is the
// server's condition, leaves sorted, bound and projected once, so an
// iteration is plan + sweep + materialize. "catalog-200K" is the same at
// the standing workload's own scale (2×200K tuples, 2,000 facts) at one
// and at two workers, and both budgets run one plan, the sequential one:
// the engine sizes shards by the rows the sweep can read, which the
// leaves' run indexes bound to about 200 here, not by the 400K rows the
// leaves hold. CI fails if workers=2 reports more allocs/op than
// workers=1: an allocation count pins that decision without a clock.
// windows/op, read from one more, traced, run, is the number to watch:
// the candidate windows the sweep drew (≈180 with temporal run skipping
// at 20K, 20,077 when only facts are skipped); gallops/op is what it
// paid for them — run skips, each answered from a leaf's fact-run index
// and almost all decided from it too, from the runs' time spans, without
// reading a row. The loop runs cache-warm: the rows and fid entries the
// index spares are in cache here, so it understates what the index saves
// on a loaded server, where each of those reads is a miss (the standing
// benchmark's sparse-stream workload measures that).
func BenchmarkIntersectSparseShape(b *testing.B) {
	sparse := func(tuples, facts int) (r, s *relation.Relation, leaves []*relation.Relation) {
		r, s = datagen.Pair(datagen.PairConfig{NumTuples: tuples, NumFacts: facts, MaxLenR: 100, MaxLenS: 3, MaxGap: 3, Seed: 1000})
		leaves, err := core.PrepareLeaves([]*relation.Relation{r, s}, core.Options{}, 2)
		if err != nil {
			b.Fatal(err)
		}
		return r, s, leaves
	}
	r, s, sorted := sparse(20000, 200)
	_, _, large := sparse(200000, 2000)
	for _, bc := range []struct {
		name string
		r, s *relation.Relation
		opts tpset.Options
	}{
		{"unsorted", r, s, tpset.Options{}},
		{"catalog", sorted[0], sorted[1], tpset.Options{AssumeSorted: true}},
		{"catalog-200K/workers=1", large[0], large[1], tpset.Options{AssumeSorted: true, Parallelism: 1}},
		{"catalog-200K/workers=2", large[0], large[1], tpset.Options{AssumeSorted: true, Parallelism: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := tpset.Apply(tpset.OpIntersect, bc.r, bc.s, bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() == 0 {
					b.Fatal("empty result")
				}
			}
			b.StopTimer()
			traced := bc.opts
			traced.Span = obs.NewSpan("")
			if _, err := tpset.Apply(tpset.OpIntersect, bc.r, bc.s, traced); err != nil {
				b.Fatal(err)
			}
			windows, gallops := sweepCounts(traced.Span.Snapshot())
			b.ReportMetric(float64(windows), "windows/op")
			b.ReportMetric(float64(gallops), "gallops/op")
		})
	}
}

// sweepCounts sums the advancers' counters over a traced plan: candidate
// windows drawn and run-skip gallops taken by the operators (a scan's
// gallops are the ones it received from its operator — not added again).
func sweepCounts(st *obs.SpanStats) (windows, gallops int64) {
	for _, c := range st.Children {
		w, g := sweepCounts(c)
		windows, gallops = windows+w, gallops+g
	}
	if st.Windows > 0 {
		windows, gallops = windows+st.Windows, gallops+st.Gallops
	}
	return windows, gallops
}
