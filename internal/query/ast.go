package query

import (
	"fmt"
	"sort"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/relation"
)

// Node is a node of a TP set query tree.
type Node interface {
	// String renders the subquery with the paper's operator symbols.
	String() string
	// relations appends the relation names referenced below this node.
	relations(dst []string) []string
}

// Rel references a named input relation.
type Rel struct{ Name string }

// SetOp combines two subqueries with a TP set operation.
type SetOp struct {
	Op          core.Op
	Left, Right Node
}

// Select filters a subquery by equality on one conventional attribute
// (σ[Attr=Value]). Selection commutes with the set operations and keeps
// relations duplicate-free.
type Select struct {
	Attr  string
	Value string
	Input Node
}

func (r *Rel) String() string { return r.Name }
func (q *SetOp) String() string {
	return fmt.Sprintf("(%s %s %s)", q.Left, q.Op, q.Right)
}
func (s *Select) String() string {
	return fmt.Sprintf("σ[%s='%s'](%s)", s.Attr, s.Value, s.Input)
}

func (r *Rel) relations(dst []string) []string { return append(dst, r.Name) }
func (q *SetOp) relations(dst []string) []string {
	return q.Right.relations(q.Left.relations(dst))
}
func (s *Select) relations(dst []string) []string { return s.Input.relations(dst) }

// Relations returns the distinct relation names referenced by the query,
// sorted.
func Relations(n Node) []string {
	all := n.relations(nil)
	sort.Strings(all)
	out := all[:0]
	for i, v := range all {
		if i == 0 || all[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// IsNonRepeating reports whether every input relation occurs at most once
// in the query. By Theorem 1, non-repeating queries over duplicate-free
// relations produce lineage in one-occurrence form, and by Corollary 1 they
// have PTIME data complexity.
func IsNonRepeating(n Node) bool {
	all := n.relations(nil)
	seen := make(map[string]struct{}, len(all))
	for _, name := range all {
		if _, dup := seen[name]; dup {
			return false
		}
		seen[name] = struct{}{}
	}
	return true
}

// Complexity classifies the query per §V-B.
type Complexity int

// Complexity classes of TP set queries.
const (
	// PTime: non-repeating query; lineage is 1OF and confidence
	// computation is linear per output tuple.
	PTime Complexity = iota
	// SharpPHard: at least one relation repeats; exact confidence
	// computation is #P-hard in general (Khanna et al. 2011).
	SharpPHard
)

func (c Complexity) String() string {
	if c == PTime {
		return "PTIME (non-repeating, 1OF lineage)"
	}
	return "#P-hard in general (repeating subgoals)"
}

// Classify returns the data-complexity class of the query.
func Classify(n Node) Complexity {
	if IsNonRepeating(n) {
		return PTime
	}
	return SharpPHard
}

// DBKeys returns the sorted relation names of a query database, as
// "unknown relation" errors list them.
func DBKeys(db map[string]*relation.Relation) []string {
	ks := make([]string, 0, len(db))
	for k := range db {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
