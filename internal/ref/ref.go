package ref

import (
	"fmt"
	"sort"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// Eval evaluates a query tree (Def. 4) with the oracle: leaves are read
// from db as they are, a selection keeps the tuples whose attribute
// equals the value, and every set operation is Apply over the oracle's
// own results for the two subtrees — no plan, no sort, no sharing with
// the production evaluator beyond the tree and relation types.
func Eval(n query.Node, db map[string]*relation.Relation) (*relation.Relation, error) {
	switch q := n.(type) {
	case *query.Rel:
		r, ok := db[q.Name]
		if !ok {
			return nil, fmt.Errorf("ref: unknown relation %q", q.Name)
		}
		return r, nil
	case *query.Select:
		in, err := Eval(q.Input, db)
		if err != nil {
			return nil, err
		}
		out := relation.New(in.Schema)
		for idx, a := range in.Schema.Attrs {
			if a != q.Attr {
				continue
			}
			for _, t := range in.Tuples {
				if idx < len(t.Fact) && t.Fact[idx] == q.Value {
					out.Tuples = append(out.Tuples, t)
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("ref: relation %q has no attribute %q", in.Schema.Name, q.Attr)
	case *query.SetOp:
		l, err := Eval(q.Left, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(q.Right, db)
		if err != nil {
			return nil, err
		}
		return Apply(q.Op, l, r), nil
	}
	return nil, fmt.Errorf("ref: unknown node type %T", n)
}

// Apply evaluates op(r, s) per snapshot and coalesces maximal intervals.
// Each output row's probability is its formula's possible-worlds sum
// (lineage.Expr.ProbPossibleWorlds), not the valuation the production
// path runs, so the harnesses check probabilities against Def. 3 too.
func Apply(op core.Op, r, s *relation.Relation) *relation.Relation {
	out := relation.New(relation.Schema{Name: "ref", Attrs: r.Schema.Attrs})

	// Collect the fact universe and, per fact, the sorted tuple lists.
	type factData struct {
		fact relation.Fact
		r, s []relation.Tuple
	}
	facts := make(map[string]*factData)
	ingest := func(rel *relation.Relation, left bool) {
		for i := range rel.Tuples {
			t := rel.Tuples[i]
			k := t.Key()
			fd, ok := facts[k]
			if !ok {
				fd = &factData{fact: t.Fact}
				facts[k] = fd
			}
			if left {
				fd.r = append(fd.r, t)
			} else {
				fd.s = append(fd.s, t)
			}
		}
	}
	ingest(r, true)
	ingest(s, false)

	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		fd := facts[k]
		lo, hi, any := domain(fd.r, fd.s)
		if !any {
			continue
		}
		var cur *relation.Tuple
		flush := func() {
			if cur != nil {
				out.Tuples = append(out.Tuples, *cur)
				cur = nil
			}
		}
		for t := lo; t < hi; t++ {
			lr := lineageAt(fd.r, t)
			ls := lineageAt(fd.s, t)
			lam, ok := concat(op, lr, ls)
			if !ok {
				flush()
				continue
			}
			if cur != nil && lineage.EquivalentSyntactic(cur.Lineage, lam) && cur.T.Te == t {
				cur.T.Te = t + 1
				continue
			}
			flush()
			cur = &relation.Tuple{Fact: fd.fact, Lineage: lam, T: interval.Interval{Ts: t, Te: t + 1},
				Prob: lam.ProbPossibleWorlds()}
		}
		flush()
	}
	return out
}

// concat applies the operation's lineage-concatenation function and filter
// at a single time point. ok is false when the time point yields no output.
func concat(op core.Op, lr, ls *lineage.Expr) (*lineage.Expr, bool) {
	switch op {
	case core.OpUnion:
		if lr == nil && ls == nil {
			return nil, false
		}
		return lineage.Or(lr, ls), true
	case core.OpIntersect:
		if lr == nil || ls == nil {
			return nil, false
		}
		return lineage.And(lr, ls), true
	default: // core.OpExcept
		if lr == nil {
			return nil, false
		}
		return lineage.AndNot(lr, ls), true
	}
}

func lineageAt(ts []relation.Tuple, t interval.Time) *lineage.Expr {
	for i := range ts {
		if ts[i].T.Contains(t) {
			return ts[i].Lineage
		}
	}
	return nil
}

func domain(a, b []relation.Tuple) (lo, hi interval.Time, any bool) {
	first := true
	scan := func(ts []relation.Tuple) {
		for i := range ts {
			if first {
				lo, hi = ts[i].T.Ts, ts[i].T.Te
				first = false
				continue
			}
			lo = interval.Min(lo, ts[i].T.Ts)
			hi = interval.Max(hi, ts[i].T.Te)
		}
	}
	scan(a)
	scan(b)
	return lo, hi, !first
}
