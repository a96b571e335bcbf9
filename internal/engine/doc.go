// Package engine is the partition-parallel, pipelined execution engine for
// TP set queries — an extension beyond the paper, exploiting the key
// property of the LAWA sweep (Algorithm 1): the window advancer for a fact
// group never inspects another fact's tuples, so ∪Tp, ∩Tp and −Tp — and
// whole query trees of them — decompose into independent per-fact
// subproblems.
//
// There is one execution path, CursorCtx, and every query entry point of
// the module runs it: the query service, tpset.Eval/EvalParallel/Apply,
// cmd/tpquery. It runs the four-step pipeline of Fig. 5
// in sharded form:
//
//	prepare leaves once → cut leaves at fact boundaries → per-shard cursor plan → concatenate
//
// The leaves of a plan are sorted by (fid, Ts, Te), bound to one
// order-preserving dictionary and carry their fid columns — catalog
// relations arrive that way, and anything else is prepared once per plan
// (core.PrepareLeaves: a private copy where a leaf needs binding or
// sorting — one that shares the dictionary and is in order is read in
// place — shared dictionary, sort unless AssumeSorted, fid column, the
// leaves in parallel). cut picks K−1 cut
// ids at the combined tuple-count quantiles, snapped to fact edges by
// counting each leaf's rows below a fact from its fact-run index
// (relation.Runs.Below — the index the leaf's scans skip with, built
// once per relation), and hands shard i of every leaf a frozen
// zero-copy view (relation.Slice) whose index is derived from the
// leaf's: no tuple is hashed or copied,
// so the plan step costs microseconds and a few kilobytes whatever the
// input size. Every fact group lands wholly in one shard, so a shard
// plan's output is the query's result restricted to those facts; and
// because dictionary ids are ranks of the sorted key set, ascending id
// ranges are ascending fact ranges — the shard outputs, each in
// canonical (fact, Ts, Te) order, concatenate in shard order into the
// global canonical order. A Workers-sized pool claims the shards in
// index order, each an independent query.BuildPrepared plan feeding a
// bounded channel of blocks, and concatStream drains the channels one
// after the other — no compare, no intermediate relations (see
// DESIGN.md, "Streaming execution"). The shard count is sized by the
// rows the plan's sweep can read, not the rows its leaves hold
// (shardCount, sweepRows): counted from the leaves' fact-run indexes
// without reading a row, a ∩Tp or −Tp of two leaves reads only the
// rows of facts whose runs overlap in time (−Tp its left leaf whole),
// since run skipping passes every other run. A plan that cannot fill
// two shards of Config.MinPartitionSize such rows — sparse-stream's
// r ∩Tp s, whose sweep reads a few hundred of its 400K rows — and a
// worker budget of one run the sequential plan instead; the stream
// is the same either way: a StreamCursor, which is a core.Cursor and is
// pulled like every cursor below it, one bound block per NextBatch.
// Apply is the two-leaf plan "r op s" on this path, and EvalCursor
// materializes a plan's final result (one exact-size
// allocation: core.Materialize). A panic on a producer goroutine is
// relayed to the goroutine draining the plan (core.PanicRelay).
//
// Correctness is pinned against the Def. 3 oracle (internal/ref) by the
// differential harness in oracle_test.go — random trees × random
// catalogs × worker counts, batch capacities, dictionary bindings — not
// against a sibling executor: there is none.
//
// Concurrency invariants:
//
//   - Input relations are strictly read-only: shard views are frozen,
//     the cut reads fact-run indexes and the sweep fid columns, and
//     nothing rebinds through a view, so any number of plans may share
//     one catalog relation. The one thing a plan may publish into a leaf
//     is the leaf's fact-run index, on its first cut or scan, atomically
//     (relation.Relation.Runs).
//   - An Engine holds nothing but its Config and the package holds no
//     mutable state, so engines are safe for concurrent use and free to
//     construct per request. One plan runs at most Config.Workers
//     producer goroutines plus the caller's (the consumer only ever waits
//     on the lowest unfinished shard, which is always claimed first, so
//     the pool cannot deadlock); nothing bounds the sum over concurrent
//     plans — the query service's admission gate does that.
//
// See DESIGN.md ("The partition-parallel plan") and docs/PAPER_MAP.md.
package engine
