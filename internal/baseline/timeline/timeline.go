package timeline

import (
	"sort"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Index is a Timeline Index: the relation's tuples plus the event list
// (time point → ids of tuples starting/ending there), in time order.
type Index struct {
	rel    *relation.Relation
	events []event
}

type event struct {
	t     interval.Time
	id    int32
	start bool
}

// Build constructs the Timeline Index of r. Construction cost is the event
// sort, a small fraction of the join runtime (as the paper notes).
func Build(r *relation.Relation) *Index {
	idx := &Index{rel: r, events: make([]event, 0, 2*len(r.Tuples))}
	for i := range r.Tuples {
		idx.events = append(idx.events,
			event{r.Tuples[i].T.Ts, int32(i), true},
			event{r.Tuples[i].T.Te, int32(i), false},
		)
	}
	sort.Slice(idx.events, func(a, b int) bool {
		if idx.events[a].t != idx.events[b].t {
			return idx.events[a].t < idx.events[b].t
		}
		// Ends before starts so that [x,t) and [t,y) do not pair.
		return !idx.events[a].start && idx.events[b].start
	})
	return idx
}

// Len returns the number of events in the index.
func (ix *Index) Len() int { return len(ix.events) }

// Intersect computes r ∩Tp s by Timeline Join over the two indexes,
// with the fact-equality condition applied after pair formation and the
// lineage-concatenation function and() applied on the fetched tuples.
func Intersect(r, s *relation.Relation) *relation.Relation {
	ri, si := Build(r), Build(s)
	out := relation.New(relation.Schema{Name: "ti", Attrs: r.Schema.Attrs})

	activeR := make(map[int32]struct{})
	activeS := make(map[int32]struct{})
	emit := func(rid, sid int32) {
		rt, st := &r.Tuples[rid], &s.Tuples[sid] // fetch originals
		if !relation.SameFact(rt, st) {          // post-pairing filter
			return
		}
		iv, ok := rt.T.Intersect(st.T)
		if !ok {
			return
		}
		out.Tuples = append(out.Tuples,
			relation.NewDerived(rt.Fact, lineage.And(rt.Lineage, st.Lineage), iv))
	}

	i, j := 0, 0
	for i < len(ri.events) || j < len(si.events) {
		var takeR bool
		switch {
		case i >= len(ri.events):
			takeR = false
		case j >= len(si.events):
			takeR = true
		case ri.events[i].t != si.events[j].t:
			takeR = ri.events[i].t < si.events[j].t
		default:
			// Equal time points: process end events from both sides before
			// any start event; among starts, r first (emission pairs each
			// start against the opposite active set exactly once, so the
			// order among starts does not affect the result set).
			if !ri.events[i].start {
				takeR = true
			} else if !si.events[j].start {
				takeR = false
			} else {
				takeR = true
			}
		}
		if takeR {
			ev := ri.events[i]
			i++
			if ev.start {
				// Pair the new r tuple with every active s tuple.
				for sid := range activeS {
					emit(ev.id, sid)
				}
				activeR[ev.id] = struct{}{}
			} else {
				delete(activeR, ev.id)
			}
		} else {
			ev := si.events[j]
			j++
			if ev.start {
				for rid := range activeR {
					emit(rid, ev.id)
				}
				activeS[ev.id] = struct{}{}
			} else {
				delete(activeS, ev.id)
			}
		}
	}
	return out
}
