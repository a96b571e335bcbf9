// Package keys is the interning/key-codec layer of the execution stack:
// dictionaries that map variable-length string identity — fact keys and
// lineage variable names — onto dense integers, so that the hot paths of
// the LAWA pipeline (sorting, window advancing, fact-range shard cuts,
// one-occurrence checks) run on integer compares instead of
// string compares.
//
// Two codecs with different contracts live here:
//
//   - Dict / FactID: immutable and order-preserving (ids are ranks over
//     the sorted key set), because facts are ordered — the canonical
//     (fact, Ts, Te) tuple order of the paper's sort step must survive the
//     translation bit-identically.
//   - Interner / VarID: append-only and unordered, because lineage
//     variables are only compared for equality.
//
// The layer is wired through every consumer: package relation binds a
// relation to a Dict by a column of packed ids beside its rows, package
// core sweeps on those columns and threads the id of a fact through
// windows and operator cursors into the output blocks, package
// engine cuts its shards at FactID quantiles, the query service's catalog
// maintains one superset Dict across all admitted relations, and csvio /
// datagen construct ids at ingest.
package keys
