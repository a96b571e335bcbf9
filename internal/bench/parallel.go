package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/relation"
)

// The parallel-engine experiments compare the partition-parallel engine
// (internal/engine) against the sequential LAWA driver. Inputs are
// multi-fact (one fact per ~100 tuples): the engine cuts its shards at
// fact boundaries, so the fact is its unit of parallelism and single-fact
// inputs — the hardest case
// for the baselines in Fig. 7–9 — deliberately degenerate to one shard
// and are not interesting here. Both sides are timed end-to-end including
// sort (the engine sorts its leaf clones in parallel, one worker per
// leaf), sweep, lineage concatenation and probability valuation.

// parSizes are the per-relation input sizes of the size sweep before
// scaling; |r|+|s| spans 100K–800K tuples at scale 1.
var parSizes = []int{50000, 100000, 200000, 400000}

func parWorkerBudget(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parFacts picks the distinct-fact count for an input of n tuples.
func parFacts(n int) int {
	f := n / 100
	if f < 1 {
		f = 1
	}
	return f
}

// timeRun measures one execution.
func timeRun(f func() (*relation.Relation, error)) (time.Duration, int, error) {
	start := time.Now()
	out, err := f()
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	return d, out.Len(), nil
}

// parWorkerCounts picks the engine worker counts ParSize compares: 2, 4
// and the full budget, filtered to the cap (so -workers below four
// actually bounds CPU use as documented on Config.Workers).
func parWorkerCounts(maxW int) []int {
	var counts []int
	for _, w := range []int{2, 4, maxW} {
		if w <= maxW && (len(counts) == 0 || counts[len(counts)-1] != w) {
			counts = append(counts, w)
		}
	}
	return counts
}

// measure appends one cell to the series, honoring the same per-run time
// budget semantics as Sweep.Run: once a series' previous run overran (or
// errored), larger points are skipped.
func measure(s *Series, x float64, label string, budget time.Duration, progress io.Writer,
	f func() (*relation.Relation, error)) {
	if over(*s, budget) {
		s.Cells = append(s.Cells, Cell{X: x, Label: label, Skipped: true})
		return
	}
	d, out, err := timeRun(f)
	s.Cells = append(s.Cells, Cell{X: x, Label: label, Duration: d, Output: out, Skipped: err != nil})
	if progress != nil {
		fmt.Fprintf(progress, "  %-8s %-10.0f %12s  out=%d\n", s.Approach, x, d.Round(time.Microsecond), out)
	}
}

// ParSize sweeps |r| = |s| over parSizes (scaled) and reports sequential
// LAWA against the engine at 2, 4 and the full worker budget — the
// speedup-over-size curves.
func ParSize(cfg Config) Result {
	counts := parWorkerCounts(parWorkerBudget(cfg))

	series := []Series{{Approach: "seq"}}
	for _, w := range counts {
		series = append(series, Series{Approach: fmt.Sprintf("par-%d", w)})
	}

	degenerate := ""
	for _, base := range parSizes {
		n := cfg.scaled(base)
		r, s := datagen.FixedOverlapPair(n, parFacts(n), cfg.Seed)
		x := float64(2 * n)
		if 2*n < 2*engine.DefaultMinPartitionSize {
			// Below the sharding threshold the par-N cells measure the
			// engine's sequential fallback, not parallel execution; say so
			// rather than letting them read as "no speedup".
			degenerate += fmt.Sprintf(" %.0f", x)
		}

		measure(&series[0], x, "", cfg.Budget, cfg.Progress, func() (*relation.Relation, error) {
			return core.Apply(core.OpIntersect, r, s, core.Options{})
		})
		for i, w := range counts {
			e := engine.New(engine.Config{Workers: w})
			measure(&series[i+1], x, "", cfg.Budget, cfg.Progress, func() (*relation.Relation, error) {
				return e.Apply(core.OpIntersect, r, s, core.Options{})
			})
		}
	}
	note := fmt.Sprintf("GOMAXPROCS=%d; ~100 tuples/fact; end-to-end incl. sort and probability valuation", runtime.GOMAXPROCS(0))
	if degenerate != "" {
		note += fmt.Sprintf("; par-N cells at |r|+|s| ∈ {%s } are below the sharding threshold (%d) and ran the sequential fallback",
			degenerate, 2*engine.DefaultMinPartitionSize)
	}
	return Result{
		Name:     "par-size",
		Title:    "partition-parallel engine vs sequential, multi-fact ∩Tp",
		XLabel:   "|r|+|s|",
		Series:   series,
		Scale:    cfg.Scale,
		Footnote: note,
	}
}

// ParWorkers fixes the size at 200K tuples per relation (scaled) and
// sweeps the worker count from 1 to the budget — the speedup-over-workers
// curve. The workers=1 cell is the engine's sequential fallback and so
// also measures the engine's overhead floor over core.Apply.
func ParWorkers(cfg Config) Result {
	n := cfg.scaled(200000)
	r, s := datagen.FixedOverlapPair(n, parFacts(n), cfg.Seed)
	maxW := parWorkerBudget(cfg)
	var workers []int
	for w := 1; w <= maxW; w *= 2 {
		workers = append(workers, w)
	}
	if last := workers[len(workers)-1]; last < maxW {
		workers = append(workers, maxW)
	}

	// Sweep from the highest worker count down: cost increases as workers
	// decrease, so the budget cutoff (which skips points after an overrun)
	// drops the slow low-worker tail instead of the fast parallel cells
	// the experiment exists to show.
	s1 := Series{Approach: "engine"}
	for i := len(workers) - 1; i >= 0; i-- {
		w := workers[i]
		e := engine.New(engine.Config{Workers: w})
		measure(&s1, float64(w), fmt.Sprintf("%dw", w), cfg.Budget, cfg.Progress, func() (*relation.Relation, error) {
			return e.Apply(core.OpIntersect, r, s, core.Options{})
		})
	}
	// Restore ascending worker order for display and compute speedups
	// against the slowest completed configuration (1w when it fit the
	// budget).
	for i, j := 0, len(s1.Cells)-1; i < j; i, j = i+1, j-1 {
		s1.Cells[i], s1.Cells[j] = s1.Cells[j], s1.Cells[i]
	}
	note := ""
	var base time.Duration
	baseLabel := ""
	for _, c := range s1.Cells {
		if !c.Skipped {
			base, baseLabel = c.Duration, c.Label
			break
		}
	}
	for _, c := range s1.Cells {
		if !c.Skipped && c.Label != baseLabel && base > 0 {
			note += fmt.Sprintf("%s: %.2fx  ", c.Label, float64(base)/float64(c.Duration))
		}
	}
	if baseLabel != "" {
		note = fmt.Sprintf("speedup vs %s: %s", baseLabel, note)
	}
	return Result{
		Name:     "par-workers",
		Title:    fmt.Sprintf("engine worker sweep, %d tuples/relation, ∩Tp", n),
		XLabel:   "workers",
		Series:   []Series{s1},
		Scale:    cfg.Scale,
		Footnote: fmt.Sprintf("GOMAXPROCS=%d; %s", runtime.GOMAXPROCS(0), note),
	}
}
