package relation

import (
	"fmt"
	"math"
	"sort"

	"github.com/tpset/tpset/internal/interval"
)

// Runs is the fact-run index of a bound relation: the distinct fact ids
// of its fid column in row order and the first row of each run of equal
// ids, 12 bytes per fact. In a sorted relation a fact's rows are one run,
// so the index answers the two questions the sweep and the engine's shard
// cut ask of a leaf — where does the run of fact f lie, and how many rows
// lie below fact f — in steps over the facts instead of probes into the
// column and the rows: a run skip to the next fact costs one index step
// (Seek), a cut's row count one binary search over the facts (Below).
//
// A relation builds its index once, on first demand (Relation.Runs), and
// keeps it until a mutator changes the column; a Slice view derives its
// own from its parent's without copying. An index is never written after
// it is built, so any number of readers may share one.
type Runs struct {
	fid   []int64 // fid[k]: the fact id of run k
	start []int32 // start[k]: the first row of run k, counted in the relation the index was built over
	base  int     // the row of that relation at which this relation's row 0 lies (a view's offset)
	rows  int     // this relation's row count: where the last run ends
}

// noRuns is the index of every zero-row relation, bound or not.
var noRuns = &Runs{}

// Runs returns the relation's fact-run index, or nil when the relation is
// unbound and not empty. The first call builds it in two sequential
// passes over the fid column — one counts the runs, so both arrays are
// allocated once at their exact size, one fills them — and publishes it
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
	r.runs.CompareAndSwap(nil, buildRuns(r.FidCol()))
	return r.runs.Load()
}

// buildRuns indexes the runs of equal ids in fid.
func buildRuns(fid []int64) *Runs {
	if len(fid) > math.MaxInt32 {
		panic(fmt.Sprintf("relation: a fact-run index addresses at most %d rows, the column has %d", math.MaxInt32, len(fid)))
	}
	n := 0
	for i := range fid {
		if i == 0 || fid[i] != fid[i-1] {
			n++
		}
	}
	x := &Runs{fid: make([]int64, 0, n), start: make([]int32, 0, n), rows: len(fid)}
	for i := range fid {
		if i == 0 || fid[i] != fid[i-1] {
			x.fid = append(x.fid, fid[i])
			x.start = append(x.start, int32(i))
		}
	}
	return x
}

// Len returns the number of runs.
func (x *Runs) Len() int { return len(x.fid) }

// first returns the first row of run k; k == Len() is the end of the
// last run. A view that starts inside a run sees that run start at its
// row 0.
func (x *Runs) first(k int) int {
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
	k0 := sort.Search(len(x.fid), func(k int) bool { return x.first(k) > lo }) - 1
	k1 := sort.Search(len(x.fid), func(k int) bool { return x.first(k) >= hi })
	return &Runs{fid: x.fid[k0:k1:k1], start: x.start[k0:k1:k1], base: x.base + lo, rows: hi - lo}
}

// Below returns the number of rows whose fact id is below target — the
// engine's shard cut counts rows with it: a gallop over the facts, no
// read of the column or the rows.
func (x *Runs) Below(target int64) int {
	return x.first(SkipToFid(x.fid, target))
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
// A fact-only skip (te == MinTime) reads no row. A time skip reads the
// target run's first row from from on and its last row — the dense case
// and a run that is over by te are answered there — and only an answer
// strictly inside the run searches end points, which ascend within a run
// of a duplicate-free relation (see SkipTo).
func (x *Runs) Seek(rows []Tuple, from, hint int, target int64, te interval.Time) (row, run int) {
	if from >= x.rows {
		return x.rows, len(x.fid)
	}
	if hint < 0 || hint >= len(x.fid) || x.first(hint) > from {
		hint = 0
	}
	k := hint + SkipToFid(x.fid[hint:], target)
	if k == len(x.fid) {
		return x.rows, k
	}
	lo, hi := max(x.first(k), from), x.first(k+1)
	switch {
	case hi <= from: // run k is behind from, whose fact is above target
		return from, k + 1
	case x.fid[k] != target || te == MinTime || rows[lo].T.Te > te:
		return lo, k
	case rows[hi-1].T.Te <= te:
		return hi, k + 1
	}
	// rows[lo] is below the point and rows[hi-1] is not: the answer is in (lo, hi-1].
	return lo + 1 + skipEnded(rows[lo+1:hi-1], te), k
}
