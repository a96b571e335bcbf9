package relation

import (
	"fmt"
	"math"
	"sort"

	"github.com/tpset/tpset/internal/interval"
)

// Runs is the fact-run index of a bound relation: the distinct fact ids
// of its fid column in row order, the first row of each run of equal ids
// and the run's time span — its first row's Ts and its last row's Te —
// 28 bytes per fact. In a sorted relation a fact's rows are one run, so
// the index answers the questions the sweep and the engine's shard cut
// ask of a leaf — where does the run of fact f lie, when does it start
// and end, and how many rows lie below fact f — in steps over the facts
// instead of probes into the column and the rows: a run skip to the next
// fact costs one index step (Seek), a cut's row count one binary search
// over the facts (Below), and the sweep decides a run it sits at the
// start of from its fact and span alone (At, Run). Within a run of a
// duplicate-free relation end points ascend, so the last row's Te is the
// run's latest end point: no row of the run lies outside its span.
//
// A relation builds its index once, on first demand (Relation.Runs), and
// keeps it until a mutator changes the column; a Slice view derives its
// own from its parent's without copying — a run the view cuts keeps the
// parent run's span, which still covers every row the view holds of it.
// An index is never written after it is built, so any number of readers
// may share one.
type Runs struct {
	fid   []int64             // fid[k]: the fact id of run k
	start []int32             // start[k]: the first row of run k, counted in the relation the index was built over
	span  []interval.Interval // span[k]: run k's first Ts and last Te in that relation
	base  int                 // the row of that relation at which this relation's row 0 lies (a view's offset)
	rows  int                 // this relation's row count: where the last run ends
}

// noRuns is the index of every zero-row relation, bound or not.
var noRuns = &Runs{}

// Runs returns the relation's fact-run index, or nil when the relation is
// unbound and not empty. The first call builds it in two sequential
// passes over the fid column — one counts the runs, so the arrays are
// allocated once at their exact size, one fills them and reads the two
// end rows of each run for its span — and publishes it
// atomically: concurrent first readers of a shared relation (a catalog
// relation under any number of plans) all get the one index that was
// published, and later queries read it without building. Every mutator
// that changes the column drops it; a Slice view of a relation that has
// one is born with its own.
func (r *Relation) Runs() *Runs {
	if !r.bound() {
		if len(r.Tuples) == 0 {
			return noRuns
		}
		return nil
	}
	if x := r.runs.Load(); x != nil {
		return x
	}
	r.runs.CompareAndSwap(nil, buildRuns(r.FidCol(), r.Tuples))
	return r.runs.Load()
}

// buildRuns indexes the runs of equal ids in fid over rows, the rows
// fid mirrors.
func buildRuns(fid []int64, rows []Tuple) *Runs {
	if len(fid) > math.MaxInt32 {
		panic(fmt.Sprintf("relation: a fact-run index addresses at most %d rows, the column has %d", math.MaxInt32, len(fid)))
	}
	n := 0
	for i := range fid {
		if i == 0 || fid[i] != fid[i-1] {
			n++
		}
	}
	x := &Runs{fid: make([]int64, 0, n), start: make([]int32, 0, n), span: make([]interval.Interval, 0, n), rows: len(fid)}
	for i := range fid {
		if i == 0 || fid[i] != fid[i-1] {
			if i > 0 {
				x.span[len(x.span)-1].Te = rows[i-1].T.Te
			}
			x.fid = append(x.fid, fid[i])
			x.start = append(x.start, int32(i))
			x.span = append(x.span, interval.Interval{Ts: rows[i].T.Ts})
		}
	}
	if n > 0 {
		x.span[n-1].Te = rows[len(rows)-1].T.Te
	}
	return x
}

// Len returns the number of runs.
func (x *Runs) Len() int { return len(x.fid) }

// Row returns the first row of run k; k == Len() is the end of the last
// run. A view that starts inside a run sees that run start at its row 0.
func (x *Runs) Row(k int) int {
	if k == len(x.fid) {
		return x.rows
	}
	return max(int(x.start[k])-x.base, 0)
}

// slice derives the index of rows [lo, hi) — a Slice view's — without
// copying: two binary searches find the runs the view holds, from the one
// that contains lo to the last that starts before hi, and the view's base
// clamps a run that started before lo to the view's row 0.
func (x *Runs) slice(lo, hi int) *Runs {
	if lo >= hi {
		return noRuns
	}
	k0 := sort.Search(len(x.fid), func(k int) bool { return x.Row(k) > lo }) - 1
	k1 := sort.Search(len(x.fid), func(k int) bool { return x.Row(k) >= hi })
	return &Runs{fid: x.fid[k0:k1:k1], start: x.start[k0:k1:k1], span: x.span[k0:k1:k1], base: x.base + lo, rows: hi - lo}
}

// At returns the run that holds row — searched forward from hint, a run
// that starts at or before row (one that does not is ignored) — and
// whether row is that run's first row, so that the run lies whole from
// row on: a view's row 0 inside a run it cuts is not. The search reads
// the index only, and a reader that only moves forward and keeps the
// returned run as its next hint pays one step per run it passes.
func (x *Runs) At(row, hint int) (k int, first bool) {
	if len(x.start) == 0 {
		return 0, false
	}
	at := row + x.base // counted, like start, in the relation the index was built over
	if hint < 0 || hint >= len(x.start) || int(x.start[hint]) > at {
		hint = 0
	}
	k = hint
	for k+1 < len(x.start) && int(x.start[k+1]) <= at {
		k++
	}
	return k, int(x.start[k]) == at
}

// Run returns run k's fact id and span.
func (x *Runs) Run(k int) (fid int64, span interval.Interval) { return x.fid[k], x.span[k] }

// Find returns the first run at or after run k whose fact id is at or
// above target (Len() when there is none): a gallop over the index's
// fact ids that reads no row.
func (x *Runs) Find(k int, target int64) int { return k + SkipToFid(x.fid[k:], target) }

// Below returns the number of rows whose fact id is below target — the
// engine's shard cut counts rows with it: a gallop over the facts, no
// read of the column or the rows.
func (x *Runs) Below(target int64) int {
	return x.Row(SkipToFid(x.fid, target))
}

// Seek is SkipTo answered from the index: it returns the first row at or
// after from that lies at or above the point (target, te) — a fact id
// above target, or target itself with an interval that ends after te —
// where rows are the relation's Tuples, read for end points only. hint
// names a run that starts at or before from (0 always does; one that does
// not is ignored), and Seek returns the run its answer lies in as the
// next one: a reader that only moves forward finds the next fact's run in
// one index step.
//
// A fact-only skip (te == MinTime) reads no row, and neither does a time
// skip past a run that is over by te — its span says so. Any other time
// skip reads the target run's row at from — the dense case is answered
// there — and only an answer beyond it searches end points, which ascend
// within a run of a duplicate-free relation (see SkipTo).
func (x *Runs) Seek(rows []Tuple, from, hint int, target int64, te interval.Time) (row, run int) {
	if from >= x.rows {
		return x.rows, len(x.fid)
	}
	if hint < 0 || hint >= len(x.fid) || x.Row(hint) > from {
		hint = 0
	}
	k := hint + SkipToFid(x.fid[hint:], target)
	if k == len(x.fid) {
		return x.rows, k
	}
	lo, hi := max(x.Row(k), from), x.Row(k+1)
	switch {
	case hi <= from: // run k is behind from, whose fact is above target
		return from, k + 1
	case x.fid[k] != target || te == MinTime:
		return lo, k
	case x.span[k].Te <= te:
		return hi, k + 1
	case rows[lo].T.Te > te:
		return lo, k
	}
	// rows[lo] is below the point and the run's span is not; a view that
	// cuts the run may hold none of it past lo: the answer is in (lo, hi].
	return lo + 1 + skipEnded(rows[lo+1:hi], te), k
}

// SweepRows bounds, from two indexes alone, the rows a LAWA sweep of a
// two-leaf ∩Tp or −Tp can read. Only in a fact both leaves hold, over
// run spans that overlap, can a window be valid on both sides; past
// every other run the sweep skips. So the bound is the rows of x and of
// y in those facts — and, with left (−Tp, which outputs the left side's
// windows whatever y holds), every row of x plus y's rows in those
// facts. Both relations must be sorted, so that a fact is one run and
// the ids ascend. The walk merges the two id arrays once, reads no row
// and allocates nothing, and it stops as soon as the count reaches
// limit: the result is the bound, or limit when the bound is at least
// that.
func SweepRows(x, y *Runs, left bool, limit int) int {
	n := 0
	if left {
		n = x.rows
	}
	for i, j := 0, 0; n < limit && i < len(x.fid) && j < len(y.fid); {
		switch a, b := x.fid[i], y.fid[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			if x.span[i].Overlaps(y.span[j]) {
				if !left {
					n += x.Row(i+1) - x.Row(i)
				}
				n += y.Row(j+1) - y.Row(j)
			}
			i, j = i+1, j+1
		}
	}
	return min(n, limit)
}
