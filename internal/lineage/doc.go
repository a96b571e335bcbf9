// Package lineage implements the data-lineage Boolean formulas of the
// temporal-probabilistic data model (§II and §V of the paper).
//
// A lineage expression λ is a Boolean formula over base-tuple identifiers
// (Boolean random variables assumed independent) combined with ¬, ∧ and ∨.
// The package provides:
//
//   - construction of formulas, including the three lineage-concatenation
//     functions and/andNot/or of Table I of the paper;
//   - the one-occurrence-form (1OF) test underlying Theorem 1;
//   - probability valuation: a linear-time evaluator that is exact for 1OF
//     formulas (independent subformulas), an exact Shannon-expansion
//     evaluator for arbitrary formulas, and a possible-worlds enumeration
//     oracle used by the test suite;
//   - a parser for the rendered syntax (with ASCII spellings), used by the
//     query service's JSON codec to round-trip formula structure;
//   - a sound syntactic simplifier (double negation, idempotence,
//     absorption);
//   - canonical (syntactic) rendering used for the change-preservation
//     comparisons, following footnote 1 of the paper: logical equivalence
//     checking is co-NP-complete, so the implementation compares lineage
//     syntactically.
//
// Invariant: expressions are immutable and may share subtrees freely —
// across goroutines too; all constructors reuse their operands without
// copying, so composing lineage during query evaluation is O(1) per
// operation. A nil *Expr is the paper's "null" lineage (no tuple with the
// given fact at a time point).
//
// Paper map: λ of Def. 1; Table I; 1OF and Theorem 1 (§V-A); confidence
// computation (§V-B). See docs/PAPER_MAP.md.
package lineage
