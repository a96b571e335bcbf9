// Package tpset is a temporal-probabilistic (TP) database library: the
// public API of this repository's reproduction of
//
//	K. Papaioannou, M. Theobald, M. Böhlen:
//	"Supporting Set Operations in Temporal-Probabilistic Databases",
//	ICDE 2018, pp. 1180–1191.
//
// A TP relation is a duplicate-free set of tuples (F, λ, T, p): a fact, a
// Boolean lineage formula over independent base-tuple variables, a
// half-open validity interval and a marginal probability. The library
// evaluates the three TP set operations — union ∪Tp, intersection ∩Tp and
// difference −Tp — under a sequenced possible-worlds semantics, in
// linearithmic time, using the paper's lineage-aware window advancer
// (LAWA).
//
// # Quick start
//
//	a := tpset.NewRelation("bought", "Product")
//	a.AddBase(tpset.F("milk"), "a1", 2, 10, 0.3)
//	c := tpset.NewRelation("stock", "Product")
//	c.AddBase(tpset.F("milk"), "c1", 1, 4, 0.6)
//
//	out, err := tpset.Except(c, a) // 'in stock and not bought'
//
// Each output tuple carries a finalized lineage formula (for example
// c1∧¬a1) and its exact marginal probability. For query trees, parse the
// Def. 4 grammar:
//
//	q, _ := tpset.ParseQuery("c - (a | b)")
//	out, _ := tpset.Eval(q, map[string]*tpset.Relation{"a": a, "b": b, "c": c})
//
// Non-repeating queries (every relation referenced at most once) are
// guaranteed to produce one-occurrence-form lineage, whose probability the
// library computes exactly in linear time; repeating queries fall back to
// exact Shannon expansion (worst-case exponential — the problem is
// #P-hard).
//
// # Scaling beyond the paper
//
// Two extension tiers wrap the reproduction for production-shaped use:
//
//   - the partition-parallel execution engine runs every query: Eval
//     and Apply default to a worker budget of runtime.GOMAXPROCS(0),
//     EvalParallel and Options.Parallelism set one explicitly. Above one
//     worker, inputs large enough to be worth it are cut at fact
//     boundaries into fact-range shards, the whole query runs per shard
//     and the shard streams concatenate, in shard order, into canonical
//     order — the same result at every budget;
//   - the HTTP/JSON query service (cmd/tpserve) serves a versioned
//     relation catalog with an LRU query-result cache keyed on
//     (CanonicalQuery, relation versions); MarshalRelationJSON and
//     UnmarshalRelationJSON expose its wire codec, which — unlike the CSV
//     layout — round-trips full lineage structure.
//
// The internal packages additionally provide the four baselines of the
// paper's evaluation (NORM, TPDB grounding, Timeline Index, OIP), the
// synthetic and real-world-shaped workload generators, and the benchmark
// harness regenerating every figure and table; see DESIGN.md, and
// docs/PAPER_MAP.md for a definition-by-definition concordance between
// the paper and this codebase.
package tpset
