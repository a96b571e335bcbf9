// Package interval provides the half-open integer time intervals used by
// the temporal-probabilistic data model (§II of the paper), together with
// the interval predicates (overlap, adjacency, containment) that the
// set-operation algorithms and the baseline joins are built on.
//
// An interval [Ts, Te) contains every time point t with Ts <= t < Te.
// The invariant Ts < Te holds for every constructed interval (New panics
// otherwise); the zero value is invalid and only used as a sentinel. The
// time domain ΩT is the set of int64 values; callers may restrict it
// further (for example the synthetic generators use small dense domains
// so that counting sort applies).
//
// Paper map: ΩT and the interval attribute T of Def. 1. See
// docs/PAPER_MAP.md.
package interval
