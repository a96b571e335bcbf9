package oip

import (
	"sort"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// DefaultGranules is the lower bound on the number k of granules the time
// domain is split into when the caller does not choose one. The original
// paper tunes k per dataset; Intersect uses the adaptive choice below, which
// keeps partitions small on short-interval data while still reproducing the
// reported degradation on long-interval (high-overlap) data, where tuples
// span many granules and fall into coarse multi-granule partitions.
const DefaultGranules = 256

// AdaptiveGranules returns the granule count used by Intersect for a fact
// group of n tuples: roughly one granule per 8 tuples, at least
// DefaultGranules.
func AdaptiveGranules(n int) int {
	k := n / 8
	if k < DefaultGranules {
		k = DefaultGranules
	}
	return k
}

// Partitioning holds one relation's tuples distributed over partitions.
type Partitioning struct {
	granule  int64 // granule width
	domainLo interval.Time
	k        int
	// parts maps (first, last) granule indexes to the tuples assigned to
	// that partition.
	parts map[[2]int32][]*relation.Tuple
}

// Partition assigns every tuple of r to its smallest covering partition of
// the time domain dom split into k granules.
func Partition(r *relation.Relation, dom interval.Interval, k int) *Partitioning {
	if k < 1 {
		k = 1
	}
	width := (dom.Duration() + int64(k) - 1) / int64(k)
	if width < 1 {
		width = 1
	}
	p := &Partitioning{granule: width, domainLo: dom.Ts, k: k, parts: make(map[[2]int32][]*relation.Tuple)}
	for i := range r.Tuples {
		t := &r.Tuples[i]
		first := p.granuleOf(t.T.Ts)
		last := p.granuleOf(t.T.Te - 1)
		key := [2]int32{first, last}
		p.parts[key] = append(p.parts[key], t)
	}
	return p
}

func (p *Partitioning) granuleOf(t interval.Time) int32 {
	g := (t - p.domainLo) / p.granule
	if g < 0 {
		g = 0
	}
	if g >= int64(p.k) {
		g = int64(p.k) - 1
	}
	return int32(g)
}

// Intersect computes r ∩Tp s with per-fact OIP joins and adaptive granule
// counts.
func Intersect(r, s *relation.Relation) *relation.Relation {
	return IntersectK(r, s, AdaptiveGranules(r.Len()+s.Len()))
}

// IntersectK is Intersect with an explicit granule count k.
func IntersectK(r, s *relation.Relation, k int) *relation.Relation {
	out := relation.New(relation.Schema{Name: "oip", Attrs: r.Schema.Attrs})

	// Fact-group both inputs (the §VII-A extension).
	rg := factGroups(r)
	sg := factGroups(s)
	for key, rts := range rg {
		sts, ok := sg[key]
		if !ok {
			continue
		}
		joinGroup(out, rts, sts, k)
	}
	return out
}

func joinGroup(out *relation.Relation, rts, sts []*relation.Tuple, k int) {
	dom, ok := groupDomain(rts, sts)
	if !ok {
		return
	}
	rp := partitionTuples(rts, dom, k)
	sp := partitionTuples(sts, dom, k)

	// Identify the overlapping partition pairs without enumerating the full
	// cross product: as in the original OIP, partitions are organized by
	// duration class (granule width); within one width class, the
	// partitions of s overlapping an r partition [f, l] are exactly those
	// with first granule in [f−w+1, l] — a contiguous range found by
	// binary search over the class's sorted first-granule list.
	classes := buildClasses(sp)
	for rkey, rpart := range rp.parts {
		f, l := rkey[0], rkey[1]
		for _, cl := range classes {
			lo := searchInt32(cl.firsts, f-cl.width+1)
			for i := lo; i < len(cl.firsts) && cl.firsts[i] <= l; i++ {
				joinPartitions(out, rpart, cl.parts[i])
			}
		}
	}
}

// class groups the partitions of one relation that share a granule width,
// sorted by first granule — the duration-class organization of OIP.
type class struct {
	width  int32
	firsts []int32
	parts  [][]*relation.Tuple
}

func buildClasses(p *Partitioning) []class {
	byWidth := make(map[int32]*class)
	for key, tuples := range p.parts {
		w := key[1] - key[0] + 1
		cl, ok := byWidth[w]
		if !ok {
			cl = &class{width: w}
			byWidth[w] = cl
		}
		cl.firsts = append(cl.firsts, key[0])
		cl.parts = append(cl.parts, tuples)
	}
	classes := make([]class, 0, len(byWidth))
	for _, cl := range byWidth {
		sortClass(cl)
		classes = append(classes, *cl)
	}
	return classes
}

func sortClass(cl *class) {
	idx := make([]int, len(cl.firsts))
	for i := range idx {
		idx[i] = i
	}
	sortSliceByFirst(idx, cl.firsts)
	firsts := make([]int32, len(idx))
	parts := make([][]*relation.Tuple, len(idx))
	for i, j := range idx {
		firsts[i] = cl.firsts[j]
		parts[i] = cl.parts[j]
	}
	cl.firsts = firsts
	cl.parts = parts
}

// joinPartitions is OIP's slow path: a nested loop over the tuples of two
// overlapping partitions.
func joinPartitions(out *relation.Relation, rpart, spart []*relation.Tuple) {
	for _, rt := range rpart {
		for _, st := range spart {
			iv, ok := rt.T.Intersect(st.T)
			if !ok {
				continue
			}
			out.Tuples = append(out.Tuples,
				relation.NewDerived(rt.Fact, lineage.And(rt.Lineage, st.Lineage), iv))
		}
	}
}

func searchInt32(xs []int32, min int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < min {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func sortSliceByFirst(idx []int, firsts []int32) {
	sort.Slice(idx, func(a, b int) bool { return firsts[idx[a]] < firsts[idx[b]] })
}

func partitionTuples(ts []*relation.Tuple, dom interval.Interval, k int) *Partitioning {
	tmp := &relation.Relation{Tuples: make([]relation.Tuple, 0, len(ts))}
	for _, t := range ts {
		tmp.Tuples = append(tmp.Tuples, *t)
	}
	return Partition(tmp, dom, k)
}

func groupDomain(rts, sts []*relation.Tuple) (interval.Interval, bool) {
	first := true
	var lo, hi interval.Time
	scan := func(ts []*relation.Tuple) {
		for _, t := range ts {
			if first {
				lo, hi = t.T.Ts, t.T.Te
				first = false
				continue
			}
			lo = interval.Min(lo, t.T.Ts)
			hi = interval.Max(hi, t.T.Te)
		}
	}
	scan(rts)
	scan(sts)
	return interval.Interval{Ts: lo, Te: hi}, !first
}

func factGroups(r *relation.Relation) map[string][]*relation.Tuple {
	groups := make(map[string][]*relation.Tuple, 64)
	for i := range r.Tuples {
		t, k := &r.Tuples[i], r.KeyAt(i)
		groups[k] = append(groups[k], t)
	}
	return groups
}
