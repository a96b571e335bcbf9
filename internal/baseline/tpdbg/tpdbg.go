package tpdbg

import (
	"errors"
	"sort"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// ErrUnsupported is returned for TP set difference, which TPDB cannot
// express (its grounding step only derives tuples supported by joined input
// pairs).
var ErrUnsupported = errors.New("tpdbg: set difference is not supported by the TPDB grounding strategy")

// Apply computes op(r, s) with the grounding + deduplication strategy.
func Apply(op core.Op, r, s *relation.Relation) (*relation.Relation, error) {
	switch op {
	case core.OpIntersect:
		return intersect(r, s), nil
	case core.OpUnion:
		return union(r, s), nil
	default:
		return nil, ErrUnsupported
	}
}

// intersect grounds the six Allen-overlap deduction rules. Each rule is a
// separate nested-loop pass over the fact groups, mirroring TPDB's
// rule-by-rule SQL translation; together the rules cover exactly the pairs
// with overlapping intervals.
func intersect(r, s *relation.Relation) *relation.Relation {
	groups := factGroups(s)
	out := relation.New(relation.Schema{Name: "tpdb", Attrs: r.Schema.Attrs})

	// The six overlap rules of the paper (§VII-B.1): each implemented as
	// its own predicate over (rt, st), evaluated in its own pass. A pair
	// satisfies exactly one rule, so no duplicate pairs arise.
	rules := []func(a, b interval.Interval) bool{
		// r overlaps s: a.Ts < b.Ts && b.Ts < a.Te && a.Te < b.Te
		func(a, b interval.Interval) bool { return a.Ts < b.Ts && b.Ts < a.Te && a.Te < b.Te },
		// r overlapped-by s
		func(a, b interval.Interval) bool { return b.Ts < a.Ts && a.Ts < b.Te && b.Te < a.Te },
		// r during s (incl. starts/finishes with strict containment on one side)
		func(a, b interval.Interval) bool {
			return b.Ts <= a.Ts && a.Te <= b.Te && !(a.Ts == b.Ts && a.Te == b.Te)
		},
		// r contains s
		func(a, b interval.Interval) bool {
			return a.Ts <= b.Ts && b.Te <= a.Te && !(a.Ts == b.Ts && a.Te == b.Te) && !(b.Ts <= a.Ts && a.Te <= b.Te)
		},
		// r equals s
		func(a, b interval.Interval) bool { return a.Ts == b.Ts && a.Te == b.Te },
		// catch-all guard (never fires; kept to mirror TPDB's 6-rule set)
		func(a, b interval.Interval) bool { return false },
	}

	// Every rule re-scans r: resolve each row's fact group once, not per rule.
	partners := make([][]*relation.Tuple, len(r.Tuples))
	for i := range r.Tuples {
		partners[i] = groups[r.KeyAt(i)]
	}
	for _, rule := range rules {
		for i := range r.Tuples {
			rt := &r.Tuples[i]
			for _, st := range partners[i] {
				if !rule(rt.T, st.T) {
					continue
				}
				iv, ok := rt.T.Intersect(st.T)
				if !ok {
					continue
				}
				out.Tuples = append(out.Tuples,
					relation.NewDerived(rt.Fact, lineage.And(rt.Lineage, st.Lineage), iv))
			}
		}
	}
	// With duplicate-free inputs the grounded intersection is already
	// duplicate-free, but TPDB always runs deduplication; so do we.
	return Deduplicate(out)
}

// union grounds a single conventional-union rule (concatenation) and relies
// entirely on deduplication to adjust intervals and disjunct lineages.
func union(r, s *relation.Relation) *relation.Relation {
	out := relation.New(relation.Schema{Name: "tpdb", Attrs: r.Schema.Attrs})
	out.Tuples = append(out.Tuples, r.Tuples...)
	out.Tuples = append(out.Tuples, s.Tuples...)
	return Deduplicate(out)
}

// Deduplicate implements TPDB's deduplication stage: tuples with the same
// fact and overlapping intervals are split at each other's boundaries and
// the lineages of exactly-coinciding fragments are combined with ∨.
// Fragments covered by a single tuple keep its lineage unchanged.
func Deduplicate(r *relation.Relation) *relation.Relation {
	groups := factGroups(r)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := relation.New(r.Schema)
	type ev struct {
		t     interval.Time
		start bool
		tu    *relation.Tuple
	}
	for _, k := range keys {
		tuples := groups[k]
		events := make([]ev, 0, 2*len(tuples))
		for _, t := range tuples {
			events = append(events, ev{t.T.Ts, true, t}, ev{t.T.Te, false, t})
		}
		sort.Slice(events, func(i, j int) bool {
			if events[i].t != events[j].t {
				return events[i].t < events[j].t
			}
			return !events[i].start && events[j].start
		})
		active := make(map[*relation.Tuple]struct{})
		var prev interval.Time
		for i := 0; i < len(events); {
			t := events[i].t
			if len(active) > 0 && prev < t {
				emitFragment(out, active, interval.Interval{Ts: prev, Te: t})
			}
			for i < len(events) && events[i].t == t {
				if events[i].start {
					active[events[i].tu] = struct{}{}
				} else {
					delete(active, events[i].tu)
				}
				i++
			}
			prev = t
		}
	}
	return out
}

func emitFragment(out *relation.Relation, active map[*relation.Tuple]struct{}, iv interval.Interval) {
	// Deterministic lineage order: sort contributors by (Ts, Te, lineage).
	tuples := make([]*relation.Tuple, 0, len(active))
	for t := range active {
		tuples = append(tuples, t)
	}
	sort.Slice(tuples, func(i, j int) bool {
		if c := tuples[i].T.Compare(tuples[j].T); c != 0 {
			return c < 0
		}
		return tuples[i].Lineage.Canonical() < tuples[j].Lineage.Canonical()
	})
	var lam *lineage.Expr
	for _, t := range tuples {
		lam = lineage.Or(lam, t.Lineage)
	}
	out.Tuples = append(out.Tuples, relation.NewDerived(tuples[0].Fact, lam, iv))
}

func factGroups(r *relation.Relation) map[string][]*relation.Tuple {
	groups := make(map[string][]*relation.Tuple, 64)
	for i := range r.Tuples {
		t, k := &r.Tuples[i], r.KeyAt(i)
		groups[k] = append(groups[k], t)
	}
	return groups
}
