package relation

import (
	"fmt"

	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
)

// Columnar projection of a bound relation: the structure-of-arrays view
// the batched execution stack reads where the per-tuple struct walk of
// the AoS layout would dominate. Row i of every column mirrors
// Tuples[i], so a sub-window of the relation aliases both views with
// two slice-header writes per column and zero copying. Fid is the
// packed interned id — (Fid, Ts, Te) integer compares ARE canonical
// tuple order, because dictionary ids are ranks over the sorted key
// set — and Lam carries the lineage DAG pointers so the encoder's read
// side never touches the ~100-byte tuple struct on the hot path. The
// same columns are the on-disk layout ROADMAP item 1's mmap'd segments
// will use, which is why the projection lives here rather than in core.
type Cols struct {
	Fid  []int64
	Ts   []int64
	Te   []int64
	Prob []float64
	Lam  []*lineage.Expr
}

// BuildCols materializes the columnar projection of a bound relation
// and caches it on the relation; it returns nil (and clears the cache)
// when the relation is unbound — columns exist only over one shared
// dictionary, since Fid compares are meaningless without it. Callers
// build columns once per private, sorted relation (operation prepare,
// cursor-plan leaves, catalog admission); engine shards alias it (Slice);
// every mutating method invalidates the cache.
func (r *Relation) BuildCols() *Cols {
	r.mutable("BuildCols")
	if r.dict == nil {
		r.clearCols()
		return nil
	}
	r.region = nil // heap columns: no foreign region to bounds-check
	n := len(r.Tuples)
	c := &Cols{
		Fid:  make([]int64, n),
		Ts:   make([]int64, n),
		Te:   make([]int64, n),
		Prob: make([]float64, n),
		Lam:  make([]*lineage.Expr, n),
	}
	for i := range r.Tuples {
		t := &r.Tuples[i]
		c.Fid[i] = int64(t.fid)
		c.Ts[i] = t.T.Ts
		c.Te[i] = t.T.Te
		c.Prob[i] = t.Prob
		c.Lam[i] = t.Lineage
	}
	r.cols = c
	return c
}

// Cols returns the cached columnar projection, or nil when none is
// valid. Tuples is a public field, so a caller that appends or edits it
// directly bypasses the mutator invalidation — the length check below
// catches the append case; in-place edits of an equal-length slice are
// the caller's responsibility (the execution stack only ever hands out
// read-only views of shared relations).
func (r *Relation) Cols() *Cols {
	if r.cols == nil || r.dict == nil || len(r.cols.Fid) != len(r.Tuples) {
		return nil
	}
	r.checkColsRegion() // tpinvariants build only: columns inside the mapped region
	return r.cols
}

// SetCols installs an externally built columnar projection whose
// numeric columns alias foreign memory — the mmap'd segment region —
// instead of heap slices, making BuildCols a pointer fixup rather than
// a copy for restored relations. region is the mapping the columns
// point into; the tpinvariants build re-checks containment on every
// Cols read. It returns an error when the relation is unbound or the
// column lengths do not mirror Tuples; the caller typically calls
// Freeze right after, since writes through aliased columns would
// corrupt the shared mapping.
func (r *Relation) SetCols(c *Cols, region []byte) error {
	r.mutable("SetCols")
	if r.dict == nil {
		return fmt.Errorf("relation %s: SetCols on unbound relation", r.Schema.Name)
	}
	n := len(r.Tuples)
	if c == nil || len(c.Fid) != n || len(c.Ts) != n || len(c.Te) != n || len(c.Prob) != n || len(c.Lam) != n {
		return fmt.Errorf("relation %s: SetCols columns do not mirror %d tuples", r.Schema.Name, n)
	}
	r.cols, r.region = c, region
	return nil
}

// Slice returns a frozen zero-copy view of rows [lo, hi): the tuple
// slice and, when a projection is cached, all five columns are
// sub-sliced (capacity clipped, so nothing can append into the parent),
// and the dictionary and the foreign region the columns may alias are
// carried along — a view of a restored relation still reads the
// mapping, and the tpinvariants build still bounds-checks it on every
// Cols read. The view shares the parent's rows, so it is born frozen
// whether or not the parent is: the engine cuts sorted leaves into
// per-shard views with it, any number of plans at once.
func (r *Relation) Slice(lo, hi int) *Relation {
	v := &Relation{Schema: r.Schema, Tuples: r.Tuples[lo:hi:hi], dict: r.dict, frozen: true}
	if c := r.Cols(); c != nil {
		v.cols = &Cols{
			Fid:  c.Fid[lo:hi:hi],
			Ts:   c.Ts[lo:hi:hi],
			Te:   c.Te[lo:hi:hi],
			Prob: c.Prob[lo:hi:hi],
			Lam:  c.Lam[lo:hi:hi],
		}
		v.region = r.region
	}
	return v
}

// SkipToFid returns the index of the first entry of the sorted id
// column >= target, by the same exponential-probe + binary-search
// gallop as SkipToKey — but over a packed []int64, so every probe is
// one bounds-checked load and one integer compare with no method call
// and no struct access. It is the run-skipping primitive of the
// columnar scan and the columnar batch source.
func SkipToFid(fid []int64, target int64) int {
	if len(fid) == 0 || fid[0] >= target {
		return 0
	}
	// Double until fid[hi] >= target or the column ends. Invariant
	// afterwards: fid[hi/2] < target, so the answer lies in
	// (hi/2, min(hi, len)].
	hi := 1
	for hi < len(fid) && fid[hi] < target {
		hi *= 2
	}
	lo := hi/2 + 1
	if hi > len(fid) {
		hi = len(fid)
	}
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

// IDIn returns the key's packed interned id when the key is interned
// against d, so columnar consumers can translate a FactKey into the
// integer a fid column is searched with. ok is false when the key is
// unbound or bound to a different dictionary — callers fall back to
// the string-compare path.
func (k FactKey) IDIn(d *keys.Dict) (int64, bool) {
	if d != nil && k.dict == d {
		return int64(k.id), true
	}
	return 0, false
}

// KeyIn reconstructs the FactKey of the id-th entry of d. Dict.Key is
// an O(1) array index, so a columnar source derives full comparison
// keys — string included — straight from a packed fid column without
// touching any tuple struct, and the tuples it emits inherit the
// interning exactly as on the AoS path.
func KeyIn(d *keys.Dict, id int64) FactKey {
	return FactKey{key: d.Key(keys.FactID(id)), id: keys.FactID(id), dict: d}
}

// Binding returns the tuple's interning (dictionary and packed id);
// the dictionary is nil for an unbound tuple. Batch builders use it to
// maintain the column views alongside the payload slice.
func (t *Tuple) Binding() (*keys.Dict, keys.FactID) { return t.dict, t.fid }
