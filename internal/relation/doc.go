// Package relation implements the sequenced temporal-probabilistic
// relation model of the paper (§II): a TP relation over schema
// RTp(F, λ, T, p) is a finite, duplicate-free set of tuples, each carrying
// a fact (the conventional attribute values), a lineage expression, a
// half-open time interval and a marginal probability.
//
// The package provides construction and validation, the timeslice
// operator τ_t^p used to define snapshot reducibility, change-preservation
// coalescing, sorting by (fact, Ts, Te) as required by the LAWA sweep,
// admission (Admit: bind, check and sort in one step), and the dataset
// statistics reported in Table IV of the paper.
//
// Invariants:
//
//   - Duplicate-freeness (Def. 1): no two distinct tuples share a fact
//     over overlapping intervals. Construction does not enforce it (bulk
//     loads would pay twice); Admit checks it on the same key sort that
//     binds and orders the relation, and every route of unknown
//     provenance (the CSV reader, the query service's PUT and Load, its
//     JSON decoder) calls it.
//   - The canonical tuple order is (fact key, Ts, Te) — Less, which Sort
//     establishes (on packed ids). Dictionary ids are ranks of the sorted key set, so the
//     parallel engine shards a sorted relation by cutting it at fact
//     boundaries (Slice) and concatenates shard outputs in shard order,
//     which keeps parallel output bit-identical to sequential output.
//   - A Tuple is (Fact, Lineage, T, Prob) and holds no key: Tuple.Key
//     computes Fact.Key on demand (free for one attribute, an allocation
//     otherwise), so loops hoist it or read Relation.KeyAt. Nothing in
//     the package writes a row it was only asked to read, so relations
//     may be shared between concurrent readers.
//   - Fact keys are injective: attribute values containing the key
//     separator (or escape byte) are escaped, so distinct facts can never
//     alias one key.
//   - The binding (Bind/Intern/InternAll/SetBinding, package keys)
//     belongs to the relation, not to its rows: a dictionary plus the fid
//     column, which every mutator keeps in step with Tuples and a direct
//     resize of that public field invalidates as a whole (see Relation).
//     Ids are ranks over the sorted key set, so the integer order
//     (fid, Ts, Te) IS the canonical order.
//   - Beside the column a bound relation keeps its fact-run index
//     (Runs: the distinct fids in row order and the first row of each),
//     the skip and cut primitive of the execution stack: Runs.Seek
//     answers a scan's skip to a (fact, time) point in index steps plus
//     a log-search of end points only inside a run, Runs.Below counts
//     the rows below a fact for the engine's shard cut. It is built once,
//     on first demand, published atomically for concurrent readers,
//     dropped by every mutator that changes the column, and derived
//     without a copy by Slice. SkipTo is the same skip over a block no
//     index describes, by a gallop of its column.
//
// Paper map: Defs. 1–2 (TP relation, duplicate-freeness, change
// preservation), τ_t^p (§II), Table IV statistics (§VII-C), overlapping
// factor (§VII-B). See docs/PAPER_MAP.md.
package relation
