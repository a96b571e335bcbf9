package relation

import (
	"fmt"
	"math"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
)

// FidCol returns the fid column — row i holds the packed interned id of
// Tuples[i] against Dict() — or nil when the relation is unbound. It is
// the relation's own storage: callers must not write it.
func (r *Relation) FidCol() []int64 {
	if !r.bound() {
		return nil
	}
	if r.fid == nil {
		return []int64{} // bound with zero rows: empty, but a column
	}
	return r.fid
}

// BuildCols is FidCol under the name the benchmark harness calls: a
// bound relation has its column, there is nothing left to build.
func (r *Relation) BuildCols() []int64 { return r.FidCol() }

// SetBinding binds the relation to d with a column the caller already
// holds — fid[i] must be the id of Tuples[i].Fact in d — instead of
// looking every fact up: core.Materialize hands over the ids its
// blocks carried, segment restore the fid section it decoded. The column
// is retained, clipped to its length. It returns an error on a nil
// dictionary or a column that does not mirror Tuples.
func (r *Relation) SetBinding(d *keys.Dict, fid []int64) error {
	r.mutable("SetBinding")
	if d == nil {
		return fmt.Errorf("relation %s: SetBinding without a dictionary", r.Schema.Name)
	}
	if len(fid) != len(r.Tuples) {
		return fmt.Errorf("relation %s: SetBinding column of %d ids does not mirror %d tuples", r.Schema.Name, len(fid), len(r.Tuples))
	}
	r.dict, r.fid = d, fid[:len(fid):len(fid)]
	r.runs.Store(nil)
	return nil
}

// Slice returns a frozen zero-copy view of rows [lo, hi): the tuple
// slice and the fid column are sub-sliced (capacity clipped, so nothing
// can append into the parent), and the dictionary is carried along. A
// parent that has built its fact-run index hands the view one derived
// from it (two binary searches, nothing copied). The view shares the
// parent's rows, so it is born frozen whether or not the parent is: the
// engine cuts sorted leaves into per-shard views with it, any number of
// plans at once.
func (r *Relation) Slice(lo, hi int) *Relation {
	v := &Relation{Schema: r.Schema, Tuples: r.Tuples[lo:hi:hi], frozen: true}
	if fid := r.FidCol(); fid != nil {
		v.dict, v.fid = r.dict, fid[lo:hi:hi]
		if x := r.runs.Load(); x != nil {
			v.runs.Store(x.slice(lo, hi))
		}
	}
	return v
}

// SkipToFid returns the index of the first entry of the sorted id
// column >= target, by galloping: an exponential probe from the front
// brackets the boundary and binary search pins it, so a run of m skipped
// entries costs O(log m) probes, each one bounds-checked load and one
// integer compare, however long the rest. Runs.Seek and Runs.Below
// gallop the index's fact ids with it; SkipTo gallops a block's column.
func SkipToFid(fid []int64, target int64) int {
	n := len(fid)
	if n == 0 || fid[0] >= target {
		return 0
	}
	// Double until fid[hi] >= target or the column ends. Invariant
	// afterwards: fid[hi/2] < target, so the answer lies in
	// (hi/2, min(hi, n)].
	hi := 1
	for hi < n && fid[hi] < target {
		hi *= 2
	}
	lo := hi/2 + 1
	hi = min(hi, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1) // lo <= mid < hi: in bounds, overflow-free
		if fid[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// skipEnded is SkipToFid over the end points of rows that ascend by end
// point: the index of the first row whose interval ends after te.
func skipEnded(rows []Tuple, te interval.Time) int {
	n := len(rows)
	if n == 0 || rows[0].T.Te > te {
		return 0
	}
	hi := 1
	for hi < n && rows[hi].T.Te <= te {
		hi *= 2
	}
	lo := hi/2 + 1
	hi = min(hi, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].T.Te <= te {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MinTime is the time bound that turns SkipTo into a fact-only skip: no
// interval ends at or before it.
const MinTime interval.Time = math.MinInt64

// SkipTo returns the index of the first row of a sorted block — fid
// column and the rows it mirrors — that lies at or above the point
// (target, te): its fact id is above target, or equals target and its
// interval ends after te. Everything before it is "below the point":
// a smaller fact, or the target fact at a time that is over by te. With
// te = MinTime it is SkipToFid and reads no row.
//
// It is the skip over blocks no index describes — an operator's computed
// output, a selection's copied rows; a scan answers from its relation's
// Runs instead (Runs.Seek, the same answer). The column is searched
// before a row is touched — a probe into it is a dense int64 load, a
// probe into the rows a cache miss: gallop to the target fact's run
// [lo, hi); a first row that is still running is the answer (the dense
// case), a last row that is over by te puts it at hi, and only otherwise
// are the end points inside the run searched.
//
// That search needs end points to ascend within the run: the rows of
// one fact ascend by start point, and in a duplicate-free relation
// (Def. 1) they are pairwise disjoint, so their end points ascend with
// them. A block that breaks duplicate-freeness makes the result
// unspecified (but in range) — admission, CSV ingest and
// Options.Validate reject such relations, and every operator output is
// duplicate-free by Def. 3.
func SkipTo(fid []int64, rows []Tuple, target int64, te interval.Time) int {
	lo := SkipToFid(fid, target)
	if te == MinTime || lo == len(fid) || fid[lo] != target || rows[lo].T.Te > te {
		return lo
	}
	hi := lo + SkipToFid(fid[lo:], target+1)
	if rows[hi-1].T.Te <= te {
		return hi
	}
	// rows[lo] is below the point and rows[hi-1] is not: the boundary is in (lo, hi-1].
	return lo + 1 + skipEnded(rows[lo+1:hi-1], te)
}
