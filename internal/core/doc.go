// Package core implements the paper's primary contribution (§IV): the
// lineage-aware temporal window, the lineage-aware window advancer (LAWA,
// Algorithm 1) and the three temporal-probabilistic set operations built
// on it (Algorithms 2–4: Intersect, Union, Except).
//
// The implementation follows the four-step process of Fig. 5:
//
//	sort → LAWA → λ-filter → λ-function
//
// Input relations are sorted by (fact, Ts); the advancer sweeps their
// start and end points producing candidate windows; each window is
// filtered and its output lineage finalized immediately, with no
// intermediate buffers. The overall complexity is
// O(|r| log |r| + |s| log |s|) time and O(1) additional space, against the
// quadratic behaviour of the timestamp-adjustment and grounding baselines.
//
// Invariants:
//
//   - Inputs must be duplicate-free (Options.Validate checks); outputs
//     are duplicate-free and change-preserved by construction — windows
//     are maximal, so no post-coalescing is ever needed.
//   - Output tuples appear in canonical (fact, Ts, Te) order, the same
//     order relation.Sort establishes; the parallel engine relies on this
//     to concatenate shard outputs into a bit-identical result.
//   - Every block that crosses a NextBatch is bound: one dictionary per
//     plan, and an fid column that mirrors the rows (Batch). PrepareLeaves
//     establishes it for the leaves — with Options.AssumeSorted, leaves
//     that are already sorted, on one dictionary and projected are read
//     in place (the caller guarantees sortedness; nothing writes them),
//     anything else is cloned and bound. The engine's oracle harness
//     checks every block a plan delivers.
//
// The pipeline is pull-based: Cursor is a tuple stream in canonical
// order with one pull, NextBatch — a bound block is the only thing that
// crosses an operator boundary — ScanCursor streams a sorted relation,
// and OpCursor runs the advancer directly over two child cursors. Apply — the one two-relation
// driver — is PrepareLeaves + Materialize(OpCursor), and cursor plans
// (built by internal/query, run by internal/engine) stack the same
// OpCursor into whole query trees that evaluate in O(tree depth)
// additional memory, so there is one λ-filter/λ-function implementation
// in the module.
//
// Execution is therefore batched (vectorized) throughout: pooled
// ~BatchSize-tuple blocks move through the stack (zero-copy scan
// sub-windows, operators that write their output rows in place),
// amortizing per-tuple interface, channel and encoder costs ~1000x, and
// the advancer always skips the runs of tuples
// whose windows the operation discards — facts the other input lacks,
// and stretches of a shared fact's time that end before the other input
// starts. A skip over a scan is answered by the leaf's fact-run index
// (relation.Runs: index steps, plus a log-search of end points only when
// it lands inside a run), a skip over a computed block by a gallop of
// its fid column, so the sweep costs O(output + runs) skips where it
// would pop O(n) tuples (DESIGN.md "Batched execution & run skipping").
// Materialize is
// the one point where a plan becomes a relation: it keeps the pooled
// blocks it drains until it has counted the result, then allocates the
// tuple array once at its exact length (DESIGN.md "Materializing a plan").
// Correctness is pinned against the Def. 3 oracle (internal/ref), not
// against a sibling executor: see internal/ref/reftest.
//
// Paper map: Def. 3 (the three TP set operations), Alg. 1 (Advancer),
// Algs. 2–4 (drivers), Fig. 5 (pipeline), Example 3 (window stream). See
// docs/PAPER_MAP.md.
package core
