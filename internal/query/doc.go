// Package query implements TP set queries (Def. 4 of the paper): arbitrary
// expressions of TP set operators over a set of named TP relations,
//
//	Q ::= r | Q ∪Tp Q | Q ∩Tp Q | Q −Tp Q | (Q) | σ[A=v](Q)
//
// (selection is an extension beyond Def. 4; the paper itself uses it in
// Fig. 6). The package provides:
//
//   - a parser for a plain-ASCII surface syntax ("c - (a | b)") and its
//     inverse, Canonical, a deterministic re-parseable rendering — the
//     query-service result cache keys on the canonical form, so spelling
//     variants of one query share a cache entry;
//   - a static analyzer classifying queries as non-repeating (⇒ 1OF
//     lineage and PTIME data complexity, Theorem 1 and Corollary 1) or
//     repeating (#P-hard in general);
//   - the selection push-down rewriter (selections commute with all three
//     TP set operations, as far as the schemas tell);
//   - the cursor plan builder, BuildCursor: a query tree compiles into
//     a tree of core.Cursor values that evaluates in O(tree depth)
//     memory with no intermediate relations. It is the only code in the
//     module that walks a tree to execute it; internal/engine runs its
//     plans (sequentially, or one per fact shard) and every entry point
//     — tpset.Eval, cmd/tpquery, the query service — runs the engine.
//     The package holds no mutable package-level state.
//
// Invariant: Node trees are immutable after parsing; rewrites build new
// trees. Plans never mutate input relations.
//
// Paper map: Def. 4 (queries), §V-A Theorem 1/Corollary 1 (non-repeating
// analysis), §V-B (complexity classes), Fig. 6 (selection). See
// docs/PAPER_MAP.md.
package query
