package lineage

// Simplification of lineage formulas. The TP set operations compose
// formulas blindly (the paper deliberately avoids equivalence reasoning —
// footnote 1), so repeated queries can accumulate patterns like ¬¬λ,
// λ∧λ or λ∨(λ∧µ). Simplify applies a small set of sound, cheap rewrites:
//
//	¬¬λ            → λ
//	λ∧λ, λ∨λ       → λ           (syntactic idempotence)
//	λ∧(λ∨µ)        → λ           (absorption, syntactic)
//	λ∨(λ∧µ)        → λ
//
// Equality between subformulas is decided by canonical rendering
// (EquivalentSyntactic), so the
// rewrites stay polynomial. Simplification never changes the formula's
// possible-worlds semantics — the test suite verifies probability
// preservation on random formulas — but it can make exact valuation
// dramatically cheaper by removing duplicated variables.

// Simplify returns a semantically equivalent, never larger formula. The
// result may share subtrees with the input; neither is mutated.
func Simplify(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	switch e.kind {
	case KindVar:
		return e
	case KindNot:
		in := Simplify(e.left)
		if in.kind == KindNot {
			return in.left // ¬¬λ → λ
		}
		if in == e.left {
			return e
		}
		return Not(in)
	case KindAnd, KindOr:
		l := Simplify(e.left)
		r := Simplify(e.right)
		if EquivalentSyntactic(l, r) {
			return l // idempotence
		}
		if a, ok := absorb(e.kind, l, r); ok {
			return a
		}
		if l == e.left && r == e.right {
			return e
		}
		if e.kind == KindAnd {
			return And(l, r)
		}
		return Or(l, r)
	}
	return e
}

// absorb applies λ ∧ (λ∨µ) → λ and λ ∨ (λ∧µ) → λ in both operand orders.
func absorb(kind Kind, l, r *Expr) (*Expr, bool) {
	dual := KindOr
	if kind == KindOr {
		dual = KindAnd
	}
	if r.kind == dual && (EquivalentSyntactic(l, r.left) || EquivalentSyntactic(l, r.right)) {
		return l, true
	}
	if l.kind == dual && (EquivalentSyntactic(r, l.left) || EquivalentSyntactic(r, l.right)) {
		return r, true
	}
	return nil, false
}
