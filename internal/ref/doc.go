// Package ref provides a deliberately naive reference implementation of
// the TP set operations, evaluated exactly as Definition 3 of the paper
// states them: per time point, per fact, over the lineages λ_t^{r,f} and
// λ_t^{s,f}, followed by change-preservation coalescing of consecutive
// time points with syntactically equivalent lineage.
//
// Its complexity is O((|r|+|s|) · |ΩT|) — unusable for benchmarks, perfect
// as the gold standard the production path is validated against. Apply
// is one operation, Eval a whole query tree (Def. 4); the differential
// harness (internal/ref/reftest: one random catalog/tree generator and
// one comparison) drives the engine, the public tpset API and the HTTP
// service against it.
//
// Paper map: Def. 3 read literally (snapshot semantics), Def. 2 (change
// preservation). See docs/PAPER_MAP.md.
package ref
