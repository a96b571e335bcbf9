// Command tpvet is the repository's analyzer suite — a multichecker
// (in the `go vet -vettool` mold) running the four repo-specific
// analyzers that machine-check the execution stack's invariants:
//
//	batchpool    core.GetBatch/PutBatch discipline: no pool leaks on
//	             return/error paths, no use of a batch after PutBatch
//	atomicfield  struct fields accessed via sync/atomic anywhere must
//	             be accessed atomically everywhere
//	locksnap     catalog state in internal/server is touched only under
//	             the RWMutex or from helpers reached with it held
//	ctxdone      channel-send loops in cancellation-aware producers
//	             must select on ctx.Done()/done
//
// Usage:
//
//	tpvet [-checks batchpool,ctxdone,...] [packages]
//
// Packages default to ./... . Exit status is 1 when any analyzer
// reports a finding, 2 on load/usage errors. Findings can be suppressed
// one site at a time with a justified directive:
//
//	//tpvet:ignore <analyzer> <why this site is safe>
//
// on the flagged line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tpset/tpset/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tpvet [-checks names] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.Analyzers() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var analyzers []*analysis.Analyzer
	if *checks == "" {
		analyzers = analysis.Analyzers()
	} else {
		for _, name := range strings.Split(*checks, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "tpvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		var fset = pkgs[0].Fset
		fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tpvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
