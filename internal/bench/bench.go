package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/tpset/tpset/internal/baseline/norm"
	"github.com/tpset/tpset/internal/baseline/oip"
	"github.com/tpset/tpset/internal/baseline/timeline"
	"github.com/tpset/tpset/internal/baseline/tpdbg"
	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/relation"
)

// Approach is one competitor of the evaluation.
type Approach struct {
	Name     string
	Supports map[core.Op]bool
	// Run executes op and returns the output cardinality.
	Run func(op core.Op, r, s *relation.Relation) (int, error)
}

// Approaches returns the registry of Table II, in the paper's order.
func Approaches() []Approach {
	all := map[core.Op]bool{core.OpUnion: true, core.OpIntersect: true, core.OpExcept: true}
	return []Approach{
		{
			Name:     "LAWA",
			Supports: all,
			Run: func(op core.Op, r, s *relation.Relation) (int, error) {
				// LazyProb times the set operation itself; confidence
				// computation is a separate stage in all compared systems.
				out, err := core.Apply(op, r, s, core.Options{LazyProb: true})
				if err != nil {
					return 0, err
				}
				return out.Len(), nil
			},
		},
		{
			Name:     "NORM",
			Supports: all,
			Run: func(op core.Op, r, s *relation.Relation) (int, error) {
				return norm.Apply(op, r, s).Len(), nil
			},
		},
		{
			Name:     "TPDB",
			Supports: map[core.Op]bool{core.OpUnion: true, core.OpIntersect: true},
			Run: func(op core.Op, r, s *relation.Relation) (int, error) {
				out, err := tpdbg.Apply(op, r, s)
				if err != nil {
					return 0, err
				}
				return out.Len(), nil
			},
		},
		{
			Name:     "OIP",
			Supports: map[core.Op]bool{core.OpIntersect: true},
			Run: func(op core.Op, r, s *relation.Relation) (int, error) {
				return oip.Intersect(r, s).Len(), nil
			},
		},
		{
			Name:     "TI",
			Supports: map[core.Op]bool{core.OpIntersect: true},
			Run: func(op core.Op, r, s *relation.Relation) (int, error) {
				return timeline.Intersect(r, s).Len(), nil
			},
		},
	}
}

// ApproachByName returns the registered approach with the given name.
func ApproachByName(name string) (Approach, bool) {
	for _, a := range Approaches() {
		if a.Name == name {
			return a, true
		}
	}
	return Approach{}, false
}

// Cell is one measurement of a sweep.
type Cell struct {
	X        float64       // sweep coordinate (e.g. tuples per relation)
	Label    string        // x label override (robustness sweeps)
	Duration time.Duration // elapsed wall time
	Output   int           // output cardinality
	Skipped  bool          // cut off by the time budget
}

// Series is one approach's measurements over a sweep.
type Series struct {
	Approach string
	Cells    []Cell
}

// Result is a complete experiment: several approaches over one sweep.
type Result struct {
	Name     string // e.g. "fig7a"
	Title    string
	XLabel   string
	Series   []Series
	Scale    float64
	Footnote string
}

// Sweep runs one operation over a sequence of generated inputs for several
// approaches, with a per-approach time budget: once an approach exceeds the
// budget at some size, larger sizes are skipped.
type Sweep struct {
	Op     core.Op
	Points []Point
	Budget time.Duration // per single run; 0 = no budget
}

// Point is one x coordinate of a sweep plus its input generator. The
// generator runs outside the timed section.
type Point struct {
	X     float64
	Label string
	Gen   func() (r, s *relation.Relation)
}

// Run executes the sweep for the named approaches (nil = all applicable).
func (sw Sweep) Run(names []string, progress io.Writer) []Series {
	var approaches []Approach
	if names == nil {
		for _, a := range Approaches() {
			if a.Supports[sw.Op] {
				approaches = append(approaches, a)
			}
		}
	} else {
		for _, n := range names {
			a, ok := ApproachByName(n)
			if !ok || !a.Supports[sw.Op] {
				continue
			}
			approaches = append(approaches, a)
		}
	}

	series := make([]Series, len(approaches))
	for i, a := range approaches {
		series[i].Approach = a.Name
	}
	for _, pt := range sw.Points {
		r, s := pt.Gen()
		for i, a := range approaches {
			cell := Cell{X: pt.X, Label: pt.Label}
			if over(series[i], sw.Budget) {
				cell.Skipped = true
				series[i].Cells = append(series[i].Cells, cell)
				continue
			}
			start := time.Now()
			n, err := a.Run(sw.Op, r, s)
			cell.Duration = time.Since(start)
			if err != nil {
				cell.Skipped = true
			}
			cell.Output = n
			series[i].Cells = append(series[i].Cells, cell)
			if progress != nil {
				fmt.Fprintf(progress, "  %-5s %-10s %12s  out=%d\n",
					a.Name, cell.label(), cell.Duration.Round(time.Microsecond), n)
			}
		}
	}
	return series
}

func over(s Series, budget time.Duration) bool {
	if budget <= 0 || len(s.Cells) == 0 {
		return false
	}
	last := s.Cells[len(s.Cells)-1]
	return last.Skipped || last.Duration > budget
}

// Print renders the result as an aligned text table, one row per x value,
// one column per approach.
func (res Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (scale %g) ==\n", res.Name, res.Title, res.Scale)
	if len(res.Series) == 0 {
		if res.Footnote != "" {
			fmt.Fprintln(w, res.Footnote)
		}
		return
	}
	fmt.Fprintf(w, "%-12s", res.XLabel)
	for _, s := range res.Series {
		fmt.Fprintf(w, "%14s", s.Approach)
	}
	fmt.Fprintln(w)
	rows := len(res.Series[0].Cells)
	for ri := 0; ri < rows; ri++ {
		fmt.Fprintf(w, "%-12s", res.Series[0].Cells[ri].label())
		for _, s := range res.Series {
			if ri >= len(s.Cells) || s.Cells[ri].Skipped {
				fmt.Fprintf(w, "%14s", "—")
				continue
			}
			fmt.Fprintf(w, "%14s", fmtDur(s.Cells[ri].Duration))
		}
		fmt.Fprintln(w)
	}
	if res.Footnote != "" {
		fmt.Fprintf(w, "note: %s\n", res.Footnote)
	}
	fmt.Fprintln(w)
}

func (c Cell) label() string {
	if c.Label != "" {
		return c.Label
	}
	return strconv.FormatFloat(c.X, 'f', -1, 64)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
