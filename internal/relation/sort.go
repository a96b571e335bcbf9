package relation

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
)

// Sorting never moves a row while it compares: it sorts one 32-byte,
// pointer-free key per row — packed fact id, interval, input position —
// and then moves every row and its id once, into place (Sort) or into a
// new relation (SortedCopy). The input position is the last sort field,
// so ties keep their input order and the result is deterministic.
type sortKey struct {
	fid    int64
	ts, te interval.Time
	idx    int
}

// ids returns the packed fact id of every row and the dictionary that
// resolves them: the relation's binding, or — unbound — a throwaway
// ranking of its key strings, each computed once.
func (r *Relation) ids() ([]int64, *keys.Dict) {
	if !r.bound() {
		r = &Relation{Tuples: r.Tuples} // a stand-in to bind: the rows are only read
		InternAll(r)
	}
	return r.fid, r.dict
}

// sortedKeys returns the rows' sort keys in canonical (fact, Ts, Te)
// order: ks[j].idx is the row that belongs at position j. Ids are dense
// ranks, so the keys are first dealt, in input order, into buckets of
// about eight rows on the high bits of the id — one counting pass, no
// compare — and only then ordered bucket by bucket: a relation of many
// facts pays a log of the bucket, not of the relation; one heavy fact is
// one bucket. A bucket that holds one fact over a dense enough stretch
// of time is ordered without a compare as well (countingScratch.sort:
// the bucket itself says whether — §VI-B of the paper, "a variant of
// counting-based sorting could also be used, and in this case the
// corresponding complexity is even linear"); any other is
// comparison-sorted.
func (r *Relation) sortedKeys(ids []int64) []sortKey {
	ks := make([]sortKey, len(ids))
	if len(ids) == 0 {
		return ks
	}
	lo, hi := slices.Min(ids), slices.Max(ids)
	shift := 0
	for (hi-lo)>>shift > int64(len(ids)/8) {
		shift++
	}
	ends := make([]int, (hi-lo)>>shift+1)
	for _, id := range ids {
		ends[(id-lo)>>shift]++
	}
	sum := 0
	for b, n := range ends {
		ends[b], sum = sum, sum+n
	}
	for i, id := range ids {
		b := (id - lo) >> shift
		ks[ends[b]] = sortKey{id, r.Tuples[i].T.Ts, r.Tuples[i].T.Te, i}
		ends[b]++ // a bucket's start walks to its end
	}
	var scratch countingScratch
	start := 0
	for _, end := range ends {
		if b := ks[start:end]; len(b) > 1 && !scratch.sort(b) {
			slices.SortFunc(b, compareKeys)
		}
		start = end
	}
	return ks
}

func compareKeys(a, b sortKey) int {
	switch {
	case a.fid != b.fid:
		return cmp.Compare(a.fid, b.fid)
	case a.ts != b.ts:
		return cmp.Compare(a.ts, b.ts)
	case a.te != b.te:
		return cmp.Compare(a.te, b.te)
	}
	return cmp.Compare(a.idx, b.idx)
}

// Sort orders tuples by (fact key, Ts, Te) in place, the fid column with
// them. This is the sort step of Fig. 5 in the paper and a precondition
// of the window advancer. When rows move and all of them are base
// tuples, their leaves move with them (relayLeaves).
func (r *Relation) Sort() {
	r.mutable("Sort")
	ids, _ := r.ids()
	if r.ordered(ids, true) {
		return // nothing to move: no keys built
	}
	r.permute(r.sortedKeys(ids))
}

// SortDuplicateFree is ValidateDuplicateFree followed by Sort on one
// sort of the keys: the check runs over the sorted keys and, when it
// passes, they move the rows. On a violation it returns the check's
// error and moves nothing. Admission calls it. A bound relation whose
// rows already lie in canonical order without an overlap — a loader
// that ranked them lays them out so (csvio.ReadFileSorted) — is
// recognised in one pass over its ids and rows, and pays no sort; any
// other falls back to the sort, whatever it claims, so the duplicate
// check and its error never depend on where the rows came from.
func (r *Relation) SortDuplicateFree() error {
	r.mutable("SortDuplicateFree")
	if r.bound() && r.orderedDuplicateFree() {
		return nil
	}
	ks, err := r.validatedKeys()
	if err == nil {
		r.permute(ks)
	}
	return err
}

// orderedDuplicateFree reports, in one pass over a bound relation, that
// its rows ascend in the full (fid, Ts, Te) order and that no row of a
// fact overlaps the next: exactly when the sorted keys' check passes
// and the sort would move nothing.
func (r *Relation) orderedDuplicateFree() bool {
	for i := 1; i < len(r.fid); i++ {
		if a, b := r.Tuples[i-1].T, r.Tuples[i].T; r.fid[i-1] > r.fid[i] ||
			r.fid[i-1] == r.fid[i] && (b.Ts < a.Te || a.Ts > b.Ts || a.Ts == b.Ts && a.Te > b.Te) {
			return false
		}
	}
	return true
}

// Arrange moves every row i, its id with it, to position rank[i], in
// place: one swap per row out of place. rank must be a permutation of
// the rows — CanonicalRanks returns one, and csvio lays a file out in
// canonical order with it — and is left as the identity. Arrange only
// moves rows: it checks no order, and the leaves move as they are.
func (r *Relation) Arrange(rank []int) {
	r.mutable("Arrange")
	if len(rank) != len(r.Tuples) {
		panic(fmt.Sprintf("relation: Arrange of %d rows by %d ranks", len(r.Tuples), len(rank)))
	}
	rows, fid := r.Tuples, []int64(nil)
	if r.bound() {
		fid = r.fid
	}
	swaps := 0
	for i := range rank {
		for j := rank[i]; j != i; j = rank[i] {
			if swaps++; swaps > len(rank) {
				panic("relation: Arrange by ranks that are not a permutation")
			}
			rows[i], rows[j] = rows[j], rows[i]
			if fid != nil {
				fid[i], fid[j] = fid[j], fid[i]
			}
			rank[i], rank[j] = rank[j], rank[i]
		}
	}
	if swaps > 0 {
		r.runs.Store(nil)
	}
}

// permute moves the rows, their ids and their leaves into the order of
// ks, the output of sortedKeys, and leaves an ordered relation as it
// is.
func (r *Relation) permute(ks []sortKey) {
	// Apply the permutation cycle by cycle: one move per row. A placed
	// position is marked by pointing its key at itself.
	rows := r.Tuples
	moved := false
	for i := range ks {
		if ks[i].idx == i {
			continue
		}
		moved = true
		first := rows[i]
		for j := i; ; {
			src := ks[j].idx
			ks[j].idx = j
			if src == i {
				rows[j] = first
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
	if !moved {
		return
	}
	if r.bound() {
		for j := range ks {
			r.fid[j] = ks[j].fid
		}
		r.runs.Store(nil)
	}
	relayLeaves(rows)
}

// relayLeaves gives a relation of base tuples whose rows were just
// permuted leaves that lie in row order: every lineage.Var is copied
// into one slab and the rows are pointed at the copies, so whatever
// reads the leaves of rows it walks in order — the root's probability
// (its 1OF test and valuation), the encoder's rendering and marginals
// — reads them sequentially instead of chasing pointers in ingest
// order. The old leaves are left
// as they are for whoever still holds them (a Clone taken before the
// sort). A relation that carries a formula or a null lineage anywhere
// is left alone.
func relayLeaves(rows []Tuple) {
	slab := make([]lineage.Expr, len(rows))
	for i := range rows {
		e := rows[i].Lineage
		if e == nil || e.Kind() != lineage.KindVar {
			return
		}
		slab[i] = *e
	}
	for i := range rows {
		rows[i].Lineage = &slab[i]
	}
}

// countingScratch is the reusable storage of the counting step.
type countingScratch struct {
	slots []int32 // slots[ts-lo] is 1 + the position in the bucket of the key that starts at ts
	keys  []sortKey
}

// sort orders bucket b by start point without comparing keys and
// reports whether it could: b must hold one fact, no two keys of it may
// share a start point (in a duplicate-free relation none do), and the
// start points may span at most maxSpread slots per key — beyond that
// the slot array is wasted memory and the comparison sort is cheaper.
func (c *countingScratch) sort(b []sortKey) bool {
	const maxSpread = 16
	lo, hi := b[0].ts, b[0].ts
	for _, k := range b {
		if k.fid != b[0].fid {
			return false
		}
		lo, hi = min(lo, k.ts), max(hi, k.ts)
	}
	span := hi - lo + 1
	if span < 1 || span > int64(len(b))*maxSpread { // < 1: the span overflowed
		return false
	}
	c.slots = slices.Grow(c.slots[:0], int(span))[:span]
	clear(c.slots)
	for i, k := range b {
		if c.slots[k.ts-lo] != 0 {
			return false
		}
		c.slots[k.ts-lo] = int32(i) + 1
	}
	c.keys = append(c.keys[:0], b...)
	n := 0
	for _, v := range c.slots {
		if v != 0 {
			b[n], n = c.keys[v-1], n+1
		}
	}
	return true
}

// SortedCopy returns an unfrozen sorted copy — rows, column and binding —
// in one pass over r, which it only reads: what Clone followed by Sort
// produces without copying the rows before moving them.
// core.PrepareLeaves builds a plan's private leaves with it.
func (r *Relation) SortedCopy() *Relation {
	ids, _ := r.ids()
	if r.ordered(ids, true) {
		return r.Clone()
	}
	ks := r.sortedKeys(ids)
	out := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(ks))}
	for j := range ks {
		out.Tuples[j] = r.Tuples[ks[j].idx]
	}
	if r.bound() {
		out.dict, out.fid = r.dict, make([]int64, len(ks))
		for j := range ks {
			out.fid[j] = ks[j].fid
		}
	}
	return out
}

// IsSorted reports whether the relation is in (fact, Ts) order.
func (r *Relation) IsSorted() bool {
	ids, _ := r.ids()
	return r.ordered(ids, false)
}

// InCanonicalOrder reports whether the rows are in the full
// (fact, Ts, Te) order Sort leaves them in: IsSorted, and ascending Te
// among rows of equal (fact, Ts).
func (r *Relation) InCanonicalOrder() bool {
	ids, _ := r.ids()
	return r.ordered(ids, true)
}

// ordered reports whether the rows ascend by (ids, Ts) and, with te, by
// Te among equal (id, Ts) — the full order Sort establishes.
func (r *Relation) ordered(ids []int64, te bool) bool {
	for i := 1; i < len(ids); i++ {
		a, b := r.Tuples[i-1].T, r.Tuples[i].T
		if ids[i-1] > ids[i] || (ids[i-1] == ids[i] && (a.Ts > b.Ts || (te && a.Ts == b.Ts && a.Te > b.Te))) {
			return false
		}
	}
	return true
}
