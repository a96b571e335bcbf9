// Package engine is the partition-parallel, pipelined execution engine for
// TP set queries — an extension beyond the paper, exploiting the key
// property of the LAWA sweep (Algorithm 1): the window advancer for a fact
// group never inspects another fact's tuples, so ∪Tp, ∩Tp and −Tp — and
// whole query trees of them — decompose into independent per-fact
// subproblems.
//
// There is one execution path, CursorCtx, and every entry point of the
// module runs it: the query service, tpset.Eval/EvalParallel/Apply,
// cmd/tpquery, internal/bench. It runs the four-step pipeline of Fig. 5
// in partitioned form:
//
//	hash-partition leaves by fact → per-shard sort → per-shard cursor plan → merge
//
// The leaf relations are hash-partitioned by fact into K shards (every
// fact group lands wholly in one shard, so a shard plan's output is the
// query's result restricted to those facts). Each shard evaluates the
// whole tree as an independent query.BuildCursor plan on its own
// goroutine, feeding a bounded channel of blocks, and mergeBatchStream
// k-way merges the shard outputs back into canonical (fact, Ts, Te)
// order incrementally — no intermediate relations (see DESIGN.md,
// "Streaming execution"). Inputs below the partitioning threshold, a
// worker budget of one, and unsorted inputs that share no dictionary run
// the sequential BuildCursor plan instead; the stream is the same either
// way. Apply is the two-leaf plan "r op s" on this path, and EvalCursor
// materializes a plan's final result.
//
// Correctness is pinned against the Def. 3 oracle (internal/ref) by the
// differential harness in oracle_test.go — random trees × random
// catalogs × worker counts, batch capacities, dictionary bindings — not
// against a sibling executor: there is none.
//
// Concurrency invariants:
//
//   - Input relations are strictly read-only; partitioning hashes the
//     interned FactID (a side-effect-free read) when the plan's leaves
//     share one fact dictionary, and otherwise recomputes fact keys
//     rather than going through the lazily-caching Tuple.Key.
//   - An Engine holds nothing but its Config and the package holds no
//     mutable state, so engines are safe for concurrent use and free to
//     construct per request. One plan runs at most shardCount producer
//     goroutines (sized from Config.Workers) plus the caller's; nothing
//     bounds the sum over concurrent plans — the query service's
//     admission gate does that.
//
// See DESIGN.md ("The partition-parallel engine") and docs/PAPER_MAP.md.
package engine
