package query

import (
	"slices"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/relation"
)

// PushDown returns an equivalent query with every selection pushed as
// close to the base relations as db's schemas allow. Selections commute
// with the set operations (Fig. 6):
//
//	σ(q1 ∪Tp q2) ≡ σ(q1) ∪Tp σ(q2)
//	σ(q1 ∩Tp q2) ≡ σ(q1) ∩Tp σ(q2) ≡ σ(q1) ∩Tp q2
//	σ(q1 −Tp q2) ≡ σ(q1) −Tp σ(q2) ≡ σ(q1) −Tp q2
//
// A set operation matches facts by position and names its output after
// q1, so σ reaches q2 under the name q2's schema gives that position;
// without that schema, σ goes into q1 alone of ∩Tp and −Tp and stops
// above ∪Tp.
func PushDown(n Node, db map[string]*relation.Relation) Node {
	switch q := n.(type) {
	case *SetOp:
		return &SetOp{Op: q.Op, Left: PushDown(q.Left, db), Right: PushDown(q.Right, db)}
	case *Select:
		return pushSelect(q, PushDown(q.Input, db), db)
	}
	return n
}

// PushDownSelections is PushDown without schemas.
func PushDownSelections(n Node) Node { return PushDown(n, nil) }

// pushSelect distributes one selection over an already-rewritten subtree.
func pushSelect(sel *Select, input Node, db map[string]*relation.Relation) Node {
	switch q := input.(type) {
	case *SetOp:
		at, right := slices.Index(attrs(q.Left, db), sel.Attr), attrs(q.Right, db)
		if at >= 0 && at < len(right) {
			return &SetOp{Op: q.Op, Left: pushSelect(sel, q.Left, db),
				Right: pushSelect(&Select{Attr: right[at], Value: sel.Value}, q.Right, db)}
		}
		if q.Op != core.OpUnion {
			return &SetOp{Op: q.Op, Left: pushSelect(sel, q.Left, db), Right: q.Right}
		}
	case *Select:
		return &Select{Attr: q.Attr, Value: q.Value, Input: pushSelect(sel, q.Input, db)}
	}
	return &Select{Attr: sel.Attr, Value: sel.Value, Input: input}
}

// attrs is the attribute list of n's output — its leftmost relation's —
// or nil when db does not hold that relation.
func attrs(n Node, db map[string]*relation.Relation) []string {
	switch q := n.(type) {
	case *Select:
		return attrs(q.Input, db)
	case *SetOp:
		return attrs(q.Left, db)
	case *Rel:
		if r, ok := db[q.Name]; ok {
			return r.Schema.Attrs
		}
	}
	return nil
}
