package relation

import (
	"fmt"
	"math"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
)

// The fid column of a bound relation: row i holds the packed interned
// id of Tuples[i]. Dictionary ids are ranks over the sorted key set, so
// an ascending fid column IS canonical fact order, and the execution
// stack compares, gallops and cuts on it — one int64 load per probe —
// while everything else about a tuple is read from its row. It is the
// only projection the relation carries, and the fid section of an
// mmap'd segment is exactly this column (SetFidCol).

// BuildCols materializes the fid column of a bound relation and caches
// it on the relation; it returns nil (and clears the cache) when the
// relation is unbound — ids are meaningless without the dictionary.
// Callers build it once per private, sorted relation (core.PrepareLeaves,
// catalog admission); engine shards alias it (Slice); every mutating
// method invalidates the cache.
func (r *Relation) BuildCols() []int64 {
	r.mutable("BuildCols")
	r.clearFidCol()
	if r.dict == nil {
		return nil
	}
	r.fid = make([]int64, len(r.Tuples))
	for i := range r.Tuples {
		r.fid[i] = int64(r.Tuples[i].fid)
	}
	return r.fid
}

// FidCol returns the cached fid column, or nil when none is valid.
// Tuples is a public field, so a caller that appends to it directly
// bypasses the mutator invalidation — the length check below catches
// that; in-place edits of an equal-length slice are the caller's
// responsibility (the execution stack only ever hands out read-only
// views of shared relations).
func (r *Relation) FidCol() []int64 {
	if r.fid == nil || r.dict == nil || len(r.fid) != len(r.Tuples) {
		return nil
	}
	r.checkFidRegion() // tpinvariants build only: column inside the mapped region
	return r.fid
}

// SetFidCol installs an externally built fid column that aliases
// foreign memory — the mmap'd segment region — instead of a heap slice,
// making BuildCols a pointer fixup rather than a copy for restored
// relations. region is the mapping the column points into; the
// tpinvariants build re-checks containment on every FidCol read. It
// returns an error when the relation is unbound or the column length
// does not mirror Tuples; the caller typically calls Freeze right after,
// since writes through the aliased column would corrupt the shared
// mapping.
func (r *Relation) SetFidCol(fid []int64, region []byte) error {
	r.mutable("SetFidCol")
	if r.dict == nil {
		return fmt.Errorf("relation %s: SetFidCol on unbound relation", r.Schema.Name)
	}
	if len(fid) != len(r.Tuples) {
		return fmt.Errorf("relation %s: SetFidCol column of %d ids does not mirror %d tuples", r.Schema.Name, len(fid), len(r.Tuples))
	}
	if fid == nil {
		fid = []int64{} // the column of a zero-row relation: empty, but installed
	}
	r.fid, r.region = fid, region
	return nil
}

// Slice returns a frozen zero-copy view of rows [lo, hi): the tuple
// slice and, when one is cached, the fid column are sub-sliced
// (capacity clipped, so nothing can append into the parent), and the
// dictionary and the foreign region the column may alias are carried
// along — a view of a restored relation still reads the mapping, and
// the tpinvariants build still bounds-checks it on every FidCol read.
// The view shares the parent's rows, so it is born frozen whether or
// not the parent is: the engine cuts sorted leaves into per-shard views
// with it, any number of plans at once.
func (r *Relation) Slice(lo, hi int) *Relation {
	v := &Relation{Schema: r.Schema, Tuples: r.Tuples[lo:hi:hi], dict: r.dict, frozen: true}
	if fid := r.FidCol(); fid != nil {
		v.fid, v.region = fid[lo:hi:hi], r.region
	}
	return v
}

// SkipToFid returns the index of the first entry of the sorted id
// column >= target, by galloping (see gallop): a run of m skipped
// entries costs O(log m) probes, each one bounds-checked load and one
// integer compare. It is the cut primitive of the engine's shard plan;
// the sweep skips with SkipTo, the same gallop over (fact, time) points.
func SkipToFid(fid []int64, target int64) int {
	return gallop(len(fid), func(i int) bool { return fid[i] < target })
}

// MinTime is the time bound that turns SkipTo into a fact-only skip: no
// interval ends at or before it.
const MinTime interval.Time = math.MinInt64

// SkipTo returns the index of the first row of a sorted block — fid
// column and the rows it mirrors — that lies at or above the point
// (target, te): its fact id is above target, or equals target and its
// interval ends after te. Everything before it is "below the point":
// a smaller fact, or the target fact at a time that is over by te. With
// te = MinTime it is SkipToFid. A row is only read where the column
// holds target itself.
//
// The search needs the predicate to be monotone over the block. Fact
// ids ascend by the sort; within one fact the rows ascend by start
// point, and because the tuples of one fact in a duplicate-free
// relation (Def. 1) are pairwise disjoint, their end points ascend with
// them. A block that breaks duplicate-freeness makes the result
// unspecified (but in range) — admission, CSV ingest and
// Options.Validate reject such relations, and every operator output is
// duplicate-free by Def. 3.
func SkipTo(fid []int64, rows []Tuple, target int64, te interval.Time) int {
	return gallop(len(fid), func(i int) bool {
		return fid[i] < target || (fid[i] == target && rows[i].T.Te <= te)
	})
}

// gallop returns the first index in [0, n) at which the monotone
// predicate below turns false (n when it never does): an exponential
// probe from the front brackets the boundary, binary search pins it —
// O(log m) probes for a boundary m entries in, however long the rest.
func gallop(n int, below func(i int) bool) int {
	if n == 0 || !below(0) {
		return 0
	}
	// Double until below(hi) fails or the range ends. Invariant
	// afterwards: below(hi/2) holds, so the answer lies in
	// (hi/2, min(hi, n)].
	hi := 1
	for hi < n && below(hi) {
		hi *= 2
	}
	lo := hi/2 + 1
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1) // lo <= mid < hi: in bounds, overflow-free
		if below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// KeyIn reconstructs the FactKey of the id-th entry of d. Dict.Key is
// an O(1) array index, so the advancer derives the full comparison key
// of a fact group — string included — straight from the packed fid, and
// the tuples it emits inherit the interning of its inputs.
func KeyIn(d *keys.Dict, id int64) FactKey {
	return FactKey{key: d.Key(keys.FactID(id)), id: keys.FactID(id), dict: d}
}

// Binding returns the tuple's interning (dictionary and packed id);
// the dictionary is nil for an unbound tuple. Batch builders use it to
// maintain the fid column alongside the rows.
func (t *Tuple) Binding() (*keys.Dict, keys.FactID) { return t.dict, t.fid }
