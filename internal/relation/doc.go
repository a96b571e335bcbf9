// Package relation implements the sequenced temporal-probabilistic
// relation model of the paper (§II): a TP relation over schema
// RTp(F, λ, T, p) is a finite, duplicate-free set of tuples, each carrying
// a fact (the conventional attribute values), a lineage expression, a
// half-open time interval and a marginal probability.
//
// The package provides construction and validation, the timeslice
// operator τ_t^p used to define snapshot reducibility, change-preservation
// coalescing, sorting by (fact, Ts) as required by the LAWA sweep, and the
// dataset statistics reported in Table IV of the paper.
//
// Invariants:
//
//   - Duplicate-freeness (Def. 1): no two distinct tuples share a fact
//     over overlapping intervals. Construction does not enforce it (bulk
//     loads would pay twice); ValidateDuplicateFree checks it, and every
//     admission path of unknown provenance (CSV reader, query service
//     PUT) calls it.
//   - The canonical tuple order is (fact key, Ts, Te) — Less, which Sort
//     establishes. Dictionary ids are ranks of the sorted key set, so the
//     parallel engine shards a sorted relation by cutting it at fact
//     boundaries (Slice) and concatenates shard outputs in shard order,
//     which keeps parallel output bit-identical to sequential output.
//   - Tuple.Key caches the fact key lazily; concurrent code must not call
//     it on shared, never-sorted relations (see the engine's concurrency
//     notes) — construction through NewBase/NewDerived pre-fills it, and
//     the execution stack compares fid column entries instead.
//   - Fact keys are injective: attribute values containing the key
//     separator (or escape byte) are escaped, so distinct facts can never
//     alias one key.
//   - Interning (Bind/Intern/InternAll, package keys): a relation bound
//     to a fact dictionary compares tuples by packed (FactID, Ts, Te)
//     integers. Ids are ranks over the sorted key set, so the integer
//     order IS the canonical order; dict != nil implies every tuple is
//     interned against it (Add maintains this, dropping the binding on
//     unknown facts).
//   - The fid column (BuildCols, FidCol) is the one projection a bound
//     relation carries: row i holds the id of Tuples[i]. Every mutator
//     invalidates it; Slice views and mmap'd segments alias it.
//
// Paper map: Defs. 1–2 (TP relation, duplicate-freeness, change
// preservation), τ_t^p (§II), Table IV statistics (§VII-C), overlapping
// factor (§VII-B). See docs/PAPER_MAP.md.
package relation
