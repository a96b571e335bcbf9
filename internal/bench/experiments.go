package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

// Config steers an experiment run.
type Config struct {
	// Scale multiplies every dataset size of the paper. 1.0 reruns the
	// paper's sizes (hours for the quadratic baselines); cmd/tpbench's
	// default is a quick scaled-down run, and every Result records the
	// scale it ran at.
	Scale float64
	// Budget cuts an approach off once a single run exceeds it.
	Budget time.Duration
	// Progress receives per-run progress lines (nil = quiet).
	Progress io.Writer
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Experiment is a named, runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) Result
}

// Experiments returns every experiment of the evaluation section, in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Approach/operation support matrix (Table II)", Table2},
		{"fig7a", "Synthetic 20K–200K, 1 fact, ovl 0.6: set intersection", fig7(core.OpIntersect)},
		{"fig7b", "Synthetic 20K–200K, 1 fact, ovl 0.6: set difference", fig7(core.OpExcept)},
		{"fig7c", "Synthetic 20K–200K, 1 fact, ovl 0.6: set union", fig7(core.OpUnion)},
		{"fig8", "Synthetic 5M–50M, 1 fact, ovl 0.6: intersection, LAWA vs OIP", Fig8},
		{"table3", "Robustness dataset characteristics (Table III)", Table3},
		{"fig9a", "Robustness: overlapping factor sweep at 30M (intersection)", Fig9a},
		{"fig9b", "Robustness: distinct-fact sweep at 60K (intersection)", Fig9b},
		{"table4", "Real-world dataset properties (Table IV)", Table4},
		{"fig10a", "Meteo-like 20K–200K: set intersection", fig1011(true, core.OpIntersect)},
		{"fig10b", "Meteo-like 20K–200K: set difference", fig1011(true, core.OpExcept)},
		{"fig10c", "Meteo-like 20K–200K: set union", fig1011(true, core.OpUnion)},
		{"fig11a", "Webkit-like 20K–200K: set intersection", fig1011(false, core.OpIntersect)},
		{"fig11b", "Webkit-like 20K–200K: set difference", fig1011(false, core.OpExcept)},
		{"fig11c", "Webkit-like 20K–200K: set union", fig1011(false, core.OpUnion)},
	}
}

// ExperimentByName looks up one experiment.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig7Sizes are the x values of Fig. 7 before scaling.
var fig7Sizes = []int{20000, 40000, 60000, 80000, 100000, 120000, 140000, 160000, 180000, 200000}

// fig7 builds the experiment for one operation of Fig. 7: single-fact
// synthetic data with overlapping factor ≈ 0.6 (lengths and gaps in [0,3]),
// sizes 20K–200K.
func fig7(op core.Op) func(Config) Result {
	name := map[core.Op]string{core.OpIntersect: "fig7a", core.OpExcept: "fig7b", core.OpUnion: "fig7c"}[op]
	return func(cfg Config) Result {
		var pts []Point
		for _, n := range fig7Sizes {
			n := cfg.scaled(n)
			pts = append(pts, Point{X: float64(n), Gen: func() (r, s *relation.Relation) {
				return datagen.FixedOverlapPair(n, 1, cfg.Seed)
			}})
		}
		sw := Sweep{Op: op, Points: pts, Budget: cfg.Budget}
		return Result{
			Name:   name,
			Title:  fmt.Sprintf("synthetic, 1 fact, ovl 0.6, %v", op),
			XLabel: "tuples",
			Series: sw.Run(nil, cfg.Progress),
			Scale:  cfg.Scale,
		}
	}
}

// Fig8 compares LAWA and OIP on 5M–50M single-fact inputs (scaled).
func Fig8(cfg Config) Result {
	var pts []Point
	for _, m := range []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50} {
		n := cfg.scaled(m * 1000000)
		pts = append(pts, Point{X: float64(n), Gen: func() (r, s *relation.Relation) {
			return datagen.FixedOverlapPair(n, 1, cfg.Seed)
		}})
	}
	sw := Sweep{Op: core.OpIntersect, Points: pts, Budget: cfg.Budget}
	return Result{
		Name:   "fig8",
		Title:  "synthetic large, 1 fact, ovl 0.6, ∩Tp",
		XLabel: "tuples",
		Series: sw.Run([]string{"LAWA", "OIP"}, cfg.Progress),
		Scale:  cfg.Scale,
	}
}

// Fig9a sweeps the overlapping factor at fixed size (30M scaled) over the
// Table III configurations, comparing LAWA and OIP on intersection.
func Fig9a(cfg Config) Result {
	n := cfg.scaled(30000000)
	var pts []Point
	for _, row := range datagen.TableIII {
		row := row
		pts = append(pts, Point{
			X:     row.OverlapFactor,
			Label: fmt.Sprintf("%g", row.OverlapFactor),
			Gen: func() (r, s *relation.Relation) {
				return datagen.Pair(datagen.PairConfig{
					NumTuples: n, NumFacts: 1,
					MaxLenR: row.MaxLenR, MaxLenS: row.MaxLenS,
					MaxGap: 3, Seed: cfg.Seed,
				})
			},
		})
	}
	sw := Sweep{Op: core.OpIntersect, Points: pts, Budget: cfg.Budget}
	return Result{
		Name:     "fig9a",
		Title:    "robustness vs overlapping factor, ∩Tp",
		XLabel:   "ovl factor",
		Series:   sw.Run([]string{"LAWA", "OIP"}, cfg.Progress),
		Scale:    cfg.Scale,
		Footnote: "LAWA should stay flat; OIP should degrade as the factor grows",
	}
}

// Fig9b sweeps the number of distinct facts at fixed size (60K scaled) over
// all five approaches on intersection. The paper's fact counts are 30000,
// 100, 10, 5, 1 (listed most-to-least in Fig. 9b); the 30000 facts value is
// half the dataset size and scales with it.
func Fig9b(cfg Config) Result {
	n := cfg.scaled(60000)
	factCounts := []int{n / 2, 100, 10, 5, 1}
	var pts []Point
	for _, fc := range factCounts {
		fc := fc
		if fc < 1 {
			fc = 1
		}
		pts = append(pts, Point{
			X:     float64(fc),
			Label: fmt.Sprintf("%dF", fc),
			Gen: func() (r, s *relation.Relation) {
				return datagen.FixedOverlapPair(n, fc, cfg.Seed)
			},
		})
	}
	sw := Sweep{Op: core.OpIntersect, Points: pts, Budget: cfg.Budget}
	return Result{
		Name:     "fig9b",
		Title:    "robustness vs number of distinct facts, ∩Tp",
		XLabel:   "facts",
		Series:   sw.Run(nil, cfg.Progress),
		Scale:    cfg.Scale,
		Footnote: "LAWA should stay flat; TI wins only at the highest fact count; NORM/TPDB degrade toward 1F",
	}
}

// fig1011 builds one panel of Fig. 10 (Meteo-like) or Fig. 11
// (Webkit-like): subsets of 20K–200K tuples of the simulated dataset joined
// with its shifted counterpart.
func fig1011(meteo bool, op core.Op) func(Config) Result {
	ds := "fig11"
	if meteo {
		ds = "fig10"
	}
	suffix := map[core.Op]string{core.OpIntersect: "a", core.OpExcept: "b", core.OpUnion: "c"}[op]
	return func(cfg Config) Result {
		maxN := cfg.scaled(200000)
		var full *relation.Relation
		if meteo {
			full = datagen.Meteo(datagen.MeteoConfig{NumTuples: maxN, Stations: 80, Seed: cfg.Seed})
		} else {
			full = datagen.Webkit(datagen.WebkitConfig{NumTuples: maxN, Seed: cfg.Seed})
		}
		shifted := datagen.Shifted(full, "s", cfg.Seed+1)
		var pts []Point
		for _, base := range fig7Sizes {
			n := cfg.scaled(base)
			pts = append(pts, Point{X: float64(n), Gen: func() (r, s *relation.Relation) {
				return datagen.Subset(full, n), datagen.Subset(shifted, n)
			}})
		}
		sw := Sweep{Op: op, Points: pts, Budget: cfg.Budget}
		title := "Webkit-like"
		if meteo {
			title = "Meteo-like"
		}
		return Result{
			Name:   ds + suffix,
			Title:  fmt.Sprintf("%s real-world simulation, %v", title, op),
			XLabel: "tuples",
			Series: sw.Run(nil, cfg.Progress),
			Scale:  cfg.Scale,
		}
	}
}

// Table2 renders the support matrix as a pseudo-result (one series per
// approach; cells are 0/1 markers via the footnote text).
func Table2(cfg Config) Result {
	ops := []core.Op{core.OpUnion, core.OpExcept, core.OpIntersect}
	text := fmt.Sprintf("%-8s %8s %8s %8s\n", "Approach", "∪Tp", "−Tp", "∩Tp")
	for _, a := range Approaches() {
		text += fmt.Sprintf("%-8s", a.Name)
		for _, op := range ops {
			mark := "✗"
			if a.Supports[op] {
				mark = "✓"
			}
			text += fmt.Sprintf("%8s", mark)
		}
		text += "\n"
	}
	return Result{Name: "table2", Title: "support matrix", XLabel: "", Scale: cfg.Scale, Footnote: "\n" + text}
}

// Table3 generates each robustness configuration at a modest size and
// reports the overlapping factor actually achieved alongside the paper's
// target — the calibration evidence behind Fig. 9a.
func Table3(cfg Config) Result {
	n := cfg.scaled(1000000)
	text := fmt.Sprintf("%-10s %-10s %-10s %-10s %-12s\n",
		"target", "lenR", "lenS", "maxGap", "measured")
	for _, row := range datagen.TableIII {
		r, s := datagen.Pair(datagen.PairConfig{
			NumTuples: n, NumFacts: 1,
			MaxLenR: row.MaxLenR, MaxLenS: row.MaxLenS, MaxGap: 3, Seed: cfg.Seed,
		})
		got := relation.OverlapFactor(r, s)
		text += fmt.Sprintf("%-10g %-10d %-10d %-10d %-12.3f\n",
			row.OverlapFactor, row.MaxLenR, row.MaxLenS, 3, got)
	}
	return Result{Name: "table3", Title: "overlapping-factor calibration", Scale: cfg.Scale, Footnote: "\n" + text}
}

// Table4 prints the Table IV statistics of the two simulated real-world
// datasets at the configured scale.
func Table4(cfg Config) Result {
	meteo := datagen.Meteo(datagen.MeteoConfig{NumTuples: cfg.scaled(10200000), Stations: 80, Seed: cfg.Seed})
	webkit := datagen.Webkit(datagen.WebkitConfig{NumTuples: cfg.scaled(1500000), Seed: cfg.Seed})
	text := "\n--- Meteo-like ---\n" + relation.ComputeStats(meteo).String() +
		"--- Webkit-like ---\n" + relation.ComputeStats(webkit).String()
	return Result{Name: "table4", Title: "real-world dataset properties", Scale: cfg.Scale, Footnote: text}
}

// Names lists the experiment names, sorted in paper order (as registered).
func Names() []string {
	var ns []string
	for _, e := range Experiments() {
		ns = append(ns, e.Name)
	}
	return ns
}
