// Command tpbench regenerates the tables and figures of the paper's
// experimental evaluation (§VII). Each experiment prints an aligned table
// of runtimes (one row per sweep point, one column per approach) and,
// with -json, writes every cell as one machine-readable document.
//
// Usage:
//
//	tpbench -exp fig7a                 # one experiment
//	tpbench -exp fig7a,fig7b,table4   # several
//	tpbench -all                       # everything, paper order
//	tpbench -all -scale 0.02 -budget 10s -json out.json   # scaled-down quick run
//
// The -scale flag multiplies the paper's dataset sizes (default 0.02:
// Fig. 7 runs at 400–4K tuples, Fig. 8 at 100K–1M). Quadratic baselines
// that exceed -budget on a point are cut off at larger sizes and shown
// as "—", mirroring how the paper drops approaches that fall orders of
// magnitude behind.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/tpset/tpset/internal/bench"
)

func main() {
	var (
		expList  = flag.String("exp", "", "comma-separated experiment names (see -list)")
		all      = flag.Bool("all", false, "run every experiment in paper order")
		list     = flag.Bool("list", false, "list experiment names and exit")
		scale    = flag.Float64("scale", 0.02, "dataset size multiplier relative to the paper")
		budget   = flag.Duration("budget", 15*time.Second, "per-run time budget before an approach is cut off")
		seed     = flag.Int64("seed", 1, "generator seed")
		jsonPath = flag.String("json", "", "also write every run experiment as machine-readable JSON to this file")
		quiet    = flag.Bool("q", false, "suppress per-run progress lines")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the runs) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // materialize a settled heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}

	var names []string
	switch {
	case *all:
		names = bench.Names()
	case *expList != "":
		names = strings.Split(*expList, ",")
	default:
		fmt.Fprintln(os.Stderr, "tpbench: need -exp <names> or -all (see -list)")
		os.Exit(2)
	}

	cfg := bench.Config{Scale: *scale, Budget: *budget, Seed: *seed}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	var results []bench.Result
	for _, name := range names {
		name = strings.TrimSpace(name)
		exp, ok := bench.ExperimentByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "tpbench: unknown experiment %q (see -list)\n", name)
			os.Exit(2)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s: %s\n", exp.Name, exp.Title)
		}
		res := exp.Run(cfg)
		results = append(results, res)
		res.Print(os.Stdout)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: -json: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, results); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: -json: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: -json: %v\n", err)
			os.Exit(1)
		}
	}
}
