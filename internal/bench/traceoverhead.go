package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// The trace-overhead experiment pins the cost of the instrumentation
// layer on the hot drain path, in both states:
//
//   - off: the engine-stream drain with tracing disabled — the serving
//     path, running through code that *carries* the tracing hooks
//     (nil-span checks in the plan builders, the context case in the
//     producer selects, the always-on advancer counters);
//   - on: the same drain under a full span tree — what a trace:true
//     request or /query/explain costs. Tracing is opt-in per request, so
//     its price is informational.
//
// Both variants must report identical output cardinalities (CI-gated).
// Points are an overlap-0.6 Table-III shape and the disjoint-fact pair
// (the run-skipping fast path, where per-pull timer overhead would show
// up most against the little remaining work).

// streamWorkers is the worker budget of the experiment: two, so the
// engine actually builds the partition-parallel stream (shard goroutines
// + channels + concatenation) whose per-block hooks the experiment
// measures.
const streamWorkers = 2

// parFacts picks the distinct-fact count for an input of n tuples: the
// engine cuts its shards at fact boundaries, so the multi-fact
// experiments (this one, segment-vs-heap) use one fact per ~100 tuples.
func parFacts(n int) int {
	return max(n/100, 1)
}

// disjointPair generates a Table-III-shaped pair whose fact universes
// are disjoint (r holds f..., s holds g...), bound to one shared
// dictionary — the shape Shifted/Subset workloads and low-overlap
// catalogs produce, where ∩Tp discards every window.
func disjointPair(n, facts int, seed int64) (*relation.Relation, *relation.Relation) {
	r, s := datagen.Pair(datagen.PairConfig{
		NumTuples: n, NumFacts: facts,
		MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: seed,
	})
	out := relation.New(s.Schema)
	for i := range s.Tuples {
		t := s.Tuples[i]
		t.Fact = relation.NewFact("g" + t.Fact[0][1:])
		out.Add(relation.NewBase(t.Fact, fmt.Sprintf("s%d", i), t.T.Ts, t.T.Te, t.Prob))
	}
	relation.InternAll(r, out)
	return r, out
}

// drainStream builds the engine stream plan, drains it block-wise and
// returns the output cardinality.
func drainStream(workers int, node query.Node, db map[string]*relation.Relation, opts core.Options) int {
	cur, err := engine.New(engine.Config{Workers: workers}).Cursor(node, db, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: draining %s: %v", node, err))
	}
	defer cur.Close()
	count := 0
	b := core.GetBatch()
	for cur.NextBatch(b) {
		count += len(b.Tuples)
	}
	core.PutBatch(b)
	return count
}

// measureAlloc runs f and returns its duration, allocated bytes and
// allocation count (cumulative heap deltas, which are exact regardless
// of GC timing).
func measureAlloc(f func()) (time.Duration, uint64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TraceOverhead measures the ∩Tp engine-stream drain with tracing off
// vs on.
func TraceOverhead(cfg Config) Result {
	n := cfg.scaled(1000000)
	facts := parFacts(n)

	type variant struct {
		name   string
		traced bool
	}
	variants := []variant{{"off", false}, {"on", true}}
	series := make([]Series, len(variants))
	for i, v := range variants {
		series[i].Approach = v.name
	}

	type point struct {
		x     float64
		label string
		gen   func() (*relation.Relation, *relation.Relation)
	}
	points := []point{
		{
			x: 0.6, label: "ovl0.6",
			gen: func() (*relation.Relation, *relation.Relation) {
				return datagen.Pair(datagen.PairConfig{
					NumTuples: n, NumFacts: facts,
					MaxLenR: 3, MaxLenS: 3, MaxGap: 3, Seed: cfg.Seed,
				})
			},
		},
		{
			x: 1, label: "disjoint",
			gen: func() (*relation.Relation, *relation.Relation) {
				return disjointPair(n, facts, cfg.Seed)
			},
		},
	}

	node := query.MustParse("r & s")
	note := ""
	for _, pt := range points {
		r, s := pt.gen()
		r.Sort()
		s.Sort()
		db := map[string]*relation.Relation{"r": r, "s": s}

		for i, v := range variants {
			if over(series[i], cfg.Budget) {
				series[i].Cells = append(series[i].Cells, Cell{X: pt.x, Label: pt.label, Skipped: true})
				continue
			}
			// Best of five: the effect hunted is a few percent, so per-run
			// noise needs more suppression than the other benches' 3 reps.
			const reps = 5
			var best Cell
			for rep := 0; rep < reps; rep++ {
				// Pre-sorted inputs: what catalog admission hands the service.
				opts := core.Options{AssumeSorted: true}
				if v.traced {
					opts.Span = obs.NewSpan("")
				}
				var out int
				d, alloc, mallocs := measureAlloc(func() {
					out = drainStream(streamWorkers, node, db, opts)
				})
				if rep == 0 || d < best.Duration {
					best = Cell{
						X: pt.x, Label: pt.label, Duration: d, Output: out,
						AllocBytes: alloc, Mallocs: mallocs,
					}
				}
			}
			series[i].Cells = append(series[i].Cells, best)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "  %-4s %-9s %12s  %8.1fMB  %8d allocs  out=%d\n",
					v.name, pt.label, best.Duration.Round(time.Microsecond),
					float64(best.AllocBytes)/(1<<20), best.Mallocs, best.Output)
			}
		}

		off := series[0].Cells[len(series[0].Cells)-1]
		on := series[1].Cells[len(series[1].Cells)-1]
		if !off.Skipped && !on.Skipped && off.Duration > 0 {
			note += fmt.Sprintf("%s: traced %.2fx; ", pt.label,
				float64(on.Duration)/float64(off.Duration))
		}
	}

	return Result{
		Name:     "trace-overhead",
		Title:    "execution-trace overhead: engine-stream drain, tracing off vs on (∩Tp)",
		XLabel:   "shape",
		Series:   series,
		Scale:    cfg.Scale,
		Footnote: fmt.Sprintf("%d tuples/relation, %d facts, workers=%d, best of 5; off = trace-capable code with nil span; on/off: %s", n, facts, streamWorkers, note),
	}
}
