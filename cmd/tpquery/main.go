// Command tpquery evaluates a TP set query over relations stored as CSV
// files and prints the result relation (fact, lineage, interval,
// probability) — a minimal command-line shell for the library.
//
// Usage:
//
//	tpquery -rel a=bought.csv -rel b=ordered.csv -rel c=stock.csv \
//	        -q "c - (a | b)"
//
// Every query runs on the execution engine's cursor plan, and rows are
// written as the plan produces them, block by block, so the result is
// never held in memory. Flags select the worker budget (-workers above
// one cuts large inputs into fact-range shards and evaluates them
// concurrently, that many at a time), the per-operator execution trace
// (-trace) and whether to print the query's complexity classification
// (Theorem 1 / Corollary 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

type relFlags map[string]string

func (rf relFlags) String() string { return "" }

func (rf relFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=path, got %q", v)
	}
	rf[name] = path
	return nil
}

func main() {
	rels := relFlags{}
	flag.Var(rels, "rel", "name=path.csv (repeatable)")
	var (
		q       = flag.String("q", "", "TP set query, e.g. \"c - (a | b)\"")
		explain = flag.Bool("explain", false, "print the parsed tree and complexity class")
		workers = flag.Int("workers", 1, "worker budget of the execution engine (above one cuts large inputs into fact-range shards run that many at a time; 0 = GOMAXPROCS)")
		trace   = flag.Bool("trace", false, "print the per-operator execution trace to stderr after the result")
	)
	flag.Parse()
	if *q == "" || len(rels) == 0 {
		fmt.Fprintln(os.Stderr, "tpquery: need -q and at least one -rel name=path")
		os.Exit(2)
	}

	node, err := query.Parse(*q)
	if err != nil {
		fatal("%v", err)
	}
	if *explain {
		fmt.Fprintf(os.Stderr, "query:      %s\n", node)
		fmt.Fprintf(os.Stderr, "relations:  %s\n", strings.Join(query.Relations(node), ", "))
		fmt.Fprintf(os.Stderr, "complexity: %s\n", query.Classify(node))
	}

	db := make(map[string]*relation.Relation, len(rels))
	for name, path := range rels {
		r, err := csvio.ReadFile(path, name)
		if err != nil {
			fatal("loading %s: %v", name, err)
		}
		db[name] = r
	}
	// Rebind all loaded relations onto one shared fact dictionary (each
	// file was interned separately at ingest): the whole query tree then
	// evaluates on integer fact compares.
	all := make([]*relation.Relation, 0, len(db))
	for _, r := range db {
		all = append(all, r)
	}
	relation.InternAll(all...)

	// The trace tree is printed to stderr after the result so stdout stays
	// a clean CSV.
	var opts core.Options
	if *trace {
		opts.Span = obs.NewSpan("")
	}
	cur, err := engine.New(engine.Config{Workers: *workers}).Cursor(query.PushDown(node, db), db, opts)
	if err != nil {
		fatal("%v", err)
	}
	defer cur.Close()

	sw, err := csvio.NewStreamWriter(os.Stdout, cur.Schema())
	if err != nil {
		fatal("%v", err)
	}
	b := core.GetBatch()
	for cur.NextBatch(b) {
		for i := range b.Tuples {
			if err := sw.WriteTuple(&b.Tuples[i]); err != nil {
				fatal("%v", err)
			}
		}
	}
	core.PutBatch(b)
	if err := sw.Close(); err != nil {
		fatal("%v", err)
	}
	if opts.Span != nil {
		fmt.Fprintln(os.Stderr, "trace:")
		opts.Span.Snapshot().WriteIndented(os.Stderr)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpquery: "+format+"\n", args...)
	os.Exit(1)
}
