package norm

import (
	"sort"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Apply computes op(r, s) with the normalization strategy.
func Apply(op core.Op, r, s *relation.Relation) *relation.Relation {
	rn := Normalize(r, s)
	sn := Normalize(s, r)
	out := relation.New(relation.Schema{Name: "norm", Attrs: r.Schema.Attrs})

	type key struct {
		fact string
		iv   interval.Interval
	}
	// After mutual normalization, same-fact intervals of rn and sn are
	// equal or disjoint, so a hash join on (fact, interval) pairs them.
	sIdx := make(map[key]*relation.Tuple, len(sn.Tuples))
	sKeys := make([]key, len(sn.Tuples)) // each fact key is computed once
	for i := range sn.Tuples {
		t := &sn.Tuples[i]
		sKeys[i] = key{t.Key(), t.T}
		sIdx[sKeys[i]] = t
	}
	matchedS := make(map[key]bool)

	for i := range rn.Tuples {
		rt := &rn.Tuples[i]
		k := key{rt.Key(), rt.T}
		st := sIdx[k]
		switch op {
		case core.OpIntersect:
			if st != nil {
				out.Tuples = append(out.Tuples, relation.NewDerived(rt.Fact, lineage.And(rt.Lineage, st.Lineage), rt.T))
			}
		case core.OpExcept:
			if st != nil {
				out.Tuples = append(out.Tuples, relation.NewDerived(rt.Fact, lineage.AndNot(rt.Lineage, st.Lineage), rt.T))
			} else {
				out.Tuples = append(out.Tuples, relation.NewDerived(rt.Fact, rt.Lineage, rt.T))
			}
		case core.OpUnion:
			if st != nil {
				out.Tuples = append(out.Tuples, relation.NewDerived(rt.Fact, lineage.Or(rt.Lineage, st.Lineage), rt.T))
				matchedS[k] = true
			} else {
				out.Tuples = append(out.Tuples, relation.NewDerived(rt.Fact, rt.Lineage, rt.T))
			}
		}
	}
	if op == core.OpUnion {
		for i := range sn.Tuples {
			st := &sn.Tuples[i]
			if !matchedS[sKeys[i]] {
				out.Tuples = append(out.Tuples, relation.NewDerived(st.Fact, st.Lineage, st.T))
			}
		}
	}
	return out
}

// Normalize computes N(r, s): every tuple of r is split at the interval
// boundaries of the same-fact tuples of s that overlap it. Lineage and
// probability are carried unchanged onto every fragment.
//
// The overlap detection is a nested loop per fact group with inequality
// conditions — deliberately so; this baseline exists to reproduce the
// quadratic runtime the paper reports for NORM.
func Normalize(r, s *relation.Relation) *relation.Relation {
	groups := make(map[string][]*relation.Tuple, 64)
	for i := range s.Tuples {
		t, k := &s.Tuples[i], s.KeyAt(i)
		groups[k] = append(groups[k], t)
	}
	out := relation.New(r.Schema)
	var cuts []interval.Time
	for i := range r.Tuples {
		rt := &r.Tuples[i]
		cuts = cuts[:0]
		// Inequality join: Ts < rt.Te AND Te > rt.Ts.
		for _, st := range groups[r.KeyAt(i)] {
			if st.T.Ts < rt.T.Te && st.T.Te > rt.T.Ts {
				if st.T.Ts > rt.T.Ts {
					cuts = append(cuts, st.T.Ts)
				}
				if st.T.Te < rt.T.Te {
					cuts = append(cuts, st.T.Te)
				}
			}
		}
		if len(cuts) == 0 {
			out.Tuples = append(out.Tuples, *rt)
			continue
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		prev := rt.T.Ts
		for _, c := range cuts {
			if c == prev {
				continue
			}
			frag := *rt
			frag.T = interval.Interval{Ts: prev, Te: c}
			out.Tuples = append(out.Tuples, frag)
			prev = c
		}
		frag := *rt
		frag.T = interval.Interval{Ts: prev, Te: rt.T.Te}
		out.Tuples = append(out.Tuples, frag)
	}
	return out
}
