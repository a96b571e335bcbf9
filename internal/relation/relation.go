package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
)

// Schema describes the conventional attributes F = (A1, ..., Am) of a TP
// relation. The temporal, lineage and probability attributes are implicit.
type Schema struct {
	Name  string
	Attrs []string
}

// NewSchema returns a schema with the given relation name and attribute
// names.
func NewSchema(name string, attrs ...string) Schema {
	return Schema{Name: name, Attrs: attrs}
}

// Compatible reports whether two schemas are union-compatible: same number
// of attributes. Attribute names may differ (as in SQL set operations).
func (s Schema) Compatible(o Schema) bool { return len(s.Attrs) == len(o.Attrs) }

// Fact is the tuple of conventional attribute values r.F. Facts are
// compared by value; Key renders the canonical comparison key.
type Fact []string

// NewFact builds a fact from attribute values.
func NewFact(values ...string) Fact { return Fact(values) }

// keySep joins attribute values inside a fact key; keyEsc escapes
// occurrences of either byte within a value, so the encoding is injective
// (unique left-to-right parse: keyEsc consumes the next byte as a
// literal, a bare keySep separates values).
const (
	keySep = '\x1f'
	keyEsc = '\x1e'
)

// Key returns a canonical string key for grouping and ordering. Values
// are joined with a separator; values containing the separator or escape
// byte are escaped, so distinct facts can never alias one key (a value
// containing "\x1f" used to collide with the value split at that byte).
// For single-attribute facts the key is the value itself, which is
// trivially injective.
func (f Fact) Key() string {
	if len(f) == 1 {
		return f[0]
	}
	n, escape := 0, false
	for _, v := range f {
		n += len(v) + 1
		if !escape && strings.ContainsAny(v, "\x1e\x1f") {
			escape = true
		}
	}
	if !escape {
		return strings.Join(f, string(keySep))
	}
	var b strings.Builder
	b.Grow(n + 4)
	for i, v := range f {
		if i > 0 {
			b.WriteByte(keySep)
		}
		for j := 0; j < len(v); j++ {
			if v[j] == keySep || v[j] == keyEsc {
				b.WriteByte(keyEsc)
			}
			b.WriteByte(v[j])
		}
	}
	return b.String()
}

// ParseFactKey is the inverse of Fact.Key for a fact of attrs attribute
// values. The key encoding is injective given the attribute count (a
// bare keySep separates values, keyEsc consumes the next byte as a
// literal, and single-attribute keys are the raw value), so a segment
// file can store only the dictionary key strings and reconstruct full
// facts at open. It returns an error — never panics — on a key that is
// not a valid encoding for attrs values: a dangling trailing escape or
// a wrong separator count.
func ParseFactKey(key string, attrs int) (Fact, error) {
	if attrs <= 0 {
		return nil, fmt.Errorf("relation: fact key for %d attributes", attrs)
	}
	if attrs == 1 {
		return Fact{key}, nil
	}
	f := make(Fact, 0, attrs)
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch key[i] {
		case keyEsc:
			i++
			if i == len(key) {
				return nil, fmt.Errorf("relation: fact key %q ends in dangling escape", key)
			}
			b.WriteByte(key[i])
		case keySep:
			f = append(f, b.String())
			b.Reset()
		default:
			b.WriteByte(key[i])
		}
	}
	f = append(f, b.String())
	if len(f) != attrs {
		return nil, fmt.Errorf("relation: fact key %q encodes %d values, schema has %d attributes", key, len(f), attrs)
	}
	return f, nil
}

// Equal reports value equality of two facts.
func (f Fact) Equal(o Fact) bool {
	if len(f) != len(o) {
		return false
	}
	for i := range f {
		if f[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the fact as ('v1','v2',...).
func (f Fact) String() string {
	parts := make([]string, len(f))
	for i, v := range f {
		parts[i] = "'" + v + "'"
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Tuple is a TP tuple (F, λ, T, p) and nothing else: 56 bytes, two
// pointer words. Prob caches the probabilistic valuation of Lineage; for
// base tuples it is the base probability, for derived tuples it is
// filled by the operators (linear-time for 1OF lineage).
//
// A tuple carries no fact binding. The packed id of a fact lives beside
// the rows, in the fid column of the Relation (or the Fid column of a
// core.Batch) that holds them; a tuple outside any relation compares by
// Fact.Key, computed on demand.
type Tuple struct {
	Fact    Fact
	Lineage *lineage.Expr
	T       interval.Interval
	Prob    float64
}

// SameFact reports whether two tuples of one schema hold the same fact.
func SameFact(a, b *Tuple) bool { return a.Fact.Equal(b.Fact) }

// NewBase returns a base tuple: its lineage is the atomic variable id with
// marginal probability p, valid over [ts, te).
func NewBase(fact Fact, id string, ts, te interval.Time, p float64) Tuple {
	return Tuple{Fact: fact, Lineage: lineage.Var(id, p), T: interval.New(ts, te), Prob: p}
}

// NewDerived returns a result tuple with the given lineage; its probability
// is computed from the lineage (exact and linear when the lineage is 1OF).
func NewDerived(fact Fact, lam *lineage.Expr, iv interval.Interval) Tuple {
	return Tuple{Fact: fact, Lineage: lam, T: iv, Prob: lam.Prob()}
}

// NewDerivedLazy returns a result tuple without valuating its lineage
// probability (Prob is NaN-free zero; call ComputeProb later). The set
// operation benchmarks use this to time interval/lineage computation
// separately from probability valuation, mirroring the paper's setup where
// confidence computation is a separate stage.
func NewDerivedLazy(fact Fact, lam *lineage.Expr, iv interval.Interval) Tuple {
	return Tuple{Fact: fact, Lineage: lam, T: iv}
}

// Key returns the canonical fact key, computed on demand: free for a
// one-attribute fact, an allocation otherwise — hoist it out of loops,
// and inside a bound relation read Relation.KeyAt instead.
func (t *Tuple) Key() string { return t.Fact.Key() }

// ComputeProb (re)valuates the lineage probability into Prob.
func (t *Tuple) ComputeProb() float64 {
	t.Prob = t.Lineage.Prob()
	return t.Prob
}

// String renders the tuple like ('milk', c1∧¬a1, [2,4), 0.42).
func (t Tuple) String() string {
	return fmt.Sprintf("(%s, %s, %s, %.4g)", strings.Trim(t.Fact.String(), "()"), t.Lineage, t.T, t.Prob)
}

// Relation is a finite set of TP tuples over a schema. The tuple order is
// not semantically meaningful; Sort establishes the (fact, Ts) order the
// sweep algorithms require.
//
// The relation is the one owner of its fact binding: it is bound exactly
// when it holds a dictionary and a fid column with fid[i] the packed id
// of Tuples[i].Fact. Ids are ranks over the sorted key set, so an
// ascending column IS canonical fact order, and the sort, the duplicate
// check, the sweep, the gallops and the engine's shard cuts run on it.
// Bind, Intern and InternAll establish the binding; SetBinding takes it
// from a producer that already knows the ids. Every mutator maintains
// it: Add appends an id (or unbinds on a fact the dictionary lacks),
// Sort permutes rows and column together, Clone, Slice,
// Timeslice and Coalesce carry it. Tuples is a public field: a caller
// that resizes it directly leaves the column behind, and a column whose
// length is not len(Tuples) reads as no binding at all. In-place edits
// of a fact inside a bound relation are the caller's responsibility.
//
// Beside the column a bound relation keeps its fact-run index (Runs),
// built on first demand and dropped by every mutator that changes the
// column.
type Relation struct {
	Schema Schema
	Tuples []Tuple

	dict *keys.Dict
	fid  []int64
	// runs is the fact-run index of fid, nil until Runs builds it. It is
	// the one thing a reader publishes into a relation, so it is atomic:
	// a catalog relation is read by concurrent plans without a lock.
	runs atomic.Pointer[Runs]
	// frozen marks the relation read-only: mutators panic. Set for
	// relations whose rows or column are shared — a relation restored
	// into the catalog, a Slice view's parent.
	frozen bool
}

// bound is the length guard: the binding counts only while the column
// still mirrors Tuples row for row.
func (r *Relation) bound() bool { return r.dict != nil && len(r.fid) == len(r.Tuples) }

func (r *Relation) unbind() {
	r.dict, r.fid = nil, nil
	r.runs.Store(nil)
}

// mutable panics when the relation is frozen; every mutator calls it
// first, so a shared relation can never be written through a stale
// reference to it.
func (r *Relation) mutable(op string) {
	if r.frozen {
		panic("relation: " + op + " on frozen relation " + r.Schema.Name)
	}
}

// Freeze marks the relation read-only: every mutator panics afterwards.
// The segment store freezes restored relations because catalog relations
// are immutable; Clone returns an unfrozen deep copy, so the catalog's
// rebind-via-clone admission path is unaffected.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether the relation is read-only.
func (r *Relation) Frozen() bool { return r.frozen }

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Add appends a tuple; a bound relation stays bound when its dictionary
// knows the fact and is unbound otherwise. The caller is responsible for
// keeping the relation duplicate-free; ValidateDuplicateFree checks it.
func (r *Relation) Add(t Tuple) {
	r.mutable("Add")
	id, ok := keys.FactID(0), false
	if r.bound() {
		id, ok = r.dict.ID(t.Fact.Key())
	}
	if ok {
		r.fid = append(r.fid, int64(id))
		r.runs.Store(nil)
	} else {
		r.unbind()
	}
	r.Tuples = append(r.Tuples, t)
}

// Dict returns the dictionary the relation is bound to, or nil.
func (r *Relation) Dict() *keys.Dict {
	if !r.bound() {
		return nil
	}
	return r.dict
}

// KeyAt returns the fact key of row i: the dictionary's string when the
// relation is bound (an array index), Fact.Key computed otherwise.
func (r *Relation) KeyAt(i int) string {
	if r.bound() {
		return r.dict.Key(keys.FactID(r.fid[i]))
	}
	return r.Tuples[i].Fact.Key()
}

// appendKeys appends KeyAt of every row to dst, each computed once.
func (r *Relation) appendKeys(dst []string) []string {
	for i := range r.Tuples {
		dst = append(dst, r.KeyAt(i))
	}
	return dst
}

// Bind binds the relation to d: it builds the fid column by looking up
// every row's fact key. It reports whether every fact was present in d;
// on a miss (or a nil d) the relation is left unbound. Binding never
// reorders tuples, and because dictionaries are order-preserving a
// sorted relation stays sorted across rebinding.
func (r *Relation) Bind(d *keys.Dict) bool {
	r.mutable("Bind")
	if r.bound() && r.dict == d {
		return true
	}
	return r.bindKeys(d, nil)
}

// bindKeys is Bind over precomputed row keys (nil: read KeyAt). A row
// that repeats its predecessor's key — every row but the first of a
// fact's run in a sorted relation — reuses its id without a lookup.
func (r *Relation) bindKeys(d *keys.Dict, ks []string) bool {
	if d == nil {
		r.unbind()
		return false
	}
	fid := make([]int64, len(r.Tuples))
	prev := ""
	for i := range fid {
		var k string
		if ks != nil {
			k = ks[i]
		} else {
			k = r.KeyAt(i)
		}
		if i > 0 && k == prev {
			fid[i] = fid[i-1]
			continue
		}
		id, ok := d.ID(k)
		if !ok {
			r.unbind()
			return false
		}
		fid[i], prev = int64(id), k
	}
	r.dict, r.fid = d, fid
	r.runs.Store(nil)
	return true
}

// Unbind drops the binding; the relation compares by key strings again.
func (r *Relation) Unbind() {
	r.mutable("Unbind")
	r.unbind()
}

// Intern builds a dictionary over the relation's own facts, binds the
// relation to it and returns it — the ingest-time entry point (csvio,
// datagen, catalog admission).
func (r *Relation) Intern() *keys.Dict { return InternAll(r) }

// InternAll builds one shared dictionary over the facts of all given
// relations and binds each to it. Sharing one dictionary is what makes
// cross-relation comparisons — the window advancer, the engine's shard
// cuts — integer-only across a whole query tree.
func InternAll(rels ...*Relation) *keys.Dict {
	n := 0
	for _, r := range rels {
		r.mutable("Intern")
		n += len(r.Tuples)
	}
	ks := make([]string, 0, n)
	for _, r := range rels {
		ks = r.appendKeys(ks)
	}
	d := keys.BuildDict(ks)
	for _, r := range rels {
		r.bindKeys(d, ks[:len(r.Tuples)])
		ks = ks[len(r.Tuples):]
	}
	return d
}

// SharedDict returns the one dictionary every given non-empty relation
// is bound to, or nil when any is unbound, two differ or all are empty —
// the condition under which cross-relation compares and fact-range shard
// cuts can run on interned ids. A zero-row relation holds no id, so it
// is vacuously bound to whatever dictionary the others share.
func SharedDict(rels ...*Relation) *keys.Dict {
	var d *keys.Dict
	for _, r := range rels {
		if len(r.Tuples) == 0 {
			continue
		}
		if !r.bound() || (d != nil && r.dict != d) {
			return nil
		}
		d = r.dict
	}
	return d
}

// AddBase appends a base tuple with a fresh identifier id and probability p.
func (r *Relation) AddBase(fact Fact, id string, ts, te interval.Time, p float64) {
	r.Add(NewBase(fact, id, ts, te, p))
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone returns an unfrozen deep copy of the rows and the fid column
// (lineage trees are shared: they are immutable).
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	copy(out.Tuples, r.Tuples)
	if r.bound() {
		out.dict, out.fid = r.dict, slices.Clone(r.fid)
	}
	return out
}

// Less is the canonical tuple order (fact key, Ts, Te) for tuples outside
// a relation; it computes both keys. Inside a bound relation or a block
// the same order is the integer order (fid, Ts, Te) — ids are ranks over
// the sorted keys — which is what Sort and every stream use.
func Less(a, b *Tuple) bool {
	if ak, bk := a.Key(), b.Key(); ak != bk {
		return ak < bk
	}
	if a.T.Ts != b.T.Ts {
		return a.T.Ts < b.T.Ts
	}
	return a.T.Te < b.T.Te
}

// ValidateDuplicateFree checks the model invariant: no two distinct tuples
// share a fact over overlapping intervals. It returns a descriptive error
// naming the first violating pair in canonical order, or nil. In that
// order a fact's intervals ascend by start point, so one of them
// overlaps another exactly when it overlaps its successor: the check is
// one pass over the sort keys. It only reads the relation, so concurrent
// validators may share one.
func (r *Relation) ValidateDuplicateFree() error {
	_, err := r.validatedKeys()
	return err
}

// CanonicalRanks checks the duplicate-freeness invariant as
// ValidateDuplicateFree does and returns the order it checked it in:
// rank[i] is the position of row i in the canonical (fact, Ts, Te)
// order. One sort serves both; the rows do not move. csvio numbers a
// file's lineage variables in this order, so that ids ascend along the
// sorted relation.
func (r *Relation) CanonicalRanks() ([]int, error) {
	ks, err := r.validatedKeys()
	if err != nil {
		return nil, err
	}
	rank := make([]int, len(ks))
	for j := range ks {
		rank[ks[j].idx] = j
	}
	return rank, nil
}

// validatedKeys returns the rows' sort keys in canonical order, or the
// error naming the first overlapping pair among them.
func (r *Relation) validatedKeys() ([]sortKey, error) {
	ids, d := r.ids()
	ks := r.sortedKeys(ids)
	for j := 1; j < len(ks); j++ {
		if a, b := ks[j-1], ks[j]; a.fid == b.fid && b.ts < a.te {
			return nil, fmt.Errorf("relation %s: duplicate fact %q over overlapping intervals %s and %s", r.Schema.Name,
				d.Key(keys.FactID(a.fid)), interval.Interval{Ts: a.ts, Te: a.te}, interval.Interval{Ts: b.ts, Te: b.te})
		}
	}
	return ks, nil
}

// TimeDomain returns the smallest interval covering every tuple, and false
// when the relation is empty.
func (r *Relation) TimeDomain() (interval.Interval, bool) {
	if len(r.Tuples) == 0 {
		return interval.Interval{}, false
	}
	lo, hi := r.Tuples[0].T.Ts, r.Tuples[0].T.Te
	for i := 1; i < len(r.Tuples); i++ {
		lo = interval.Min(lo, r.Tuples[i].T.Ts)
		hi = interval.Max(hi, r.Tuples[i].T.Te)
	}
	return interval.Interval{Ts: lo, Te: hi}, true
}

// Timeslice implements the timeslice operator τ_t^p: the probabilistic
// snapshot of r at time point t. Every tuple valid at t is returned with the
// degenerate interval [t, t+1).
func (r *Relation) Timeslice(t interval.Time) *Relation {
	out := New(r.Schema)
	fid := r.FidCol()
	for i := range r.Tuples {
		tp := &r.Tuples[i]
		if tp.T.Contains(t) {
			c := *tp
			c.T = interval.Interval{Ts: t, Te: t + 1}
			out.Tuples = append(out.Tuples, c)
			if fid != nil {
				out.fid = append(out.fid, fid[i])
			}
		}
	}
	if fid != nil {
		out.dict = r.dict
	}
	return out
}

// LineageAt returns the lineage λ_t^{r,f} of the (unique, by
// duplicate-freeness) tuple with fact key factKey valid at t, or nil
// ("null") when no such tuple exists.
func (r *Relation) LineageAt(factKey string, t interval.Time) *lineage.Expr {
	for i := range r.Tuples {
		if tp := &r.Tuples[i]; tp.T.Contains(t) && r.KeyAt(i) == factKey {
			return tp.Lineage
		}
	}
	return nil
}

// Coalesce merges temporally adjacent tuples with equal facts and
// syntactically equivalent lineage, enforcing the maximality half of change
// preservation (Def. 2). The result is sorted. LAWA output never needs
// coalescing (its windows are maximal by construction); the operator exists
// for data loaded from external sources and for the baselines.
func (r *Relation) Coalesce() *Relation {
	out := r.SortedCopy()
	fid := out.FidCol()
	n := 0
	for i := range out.Tuples {
		t := out.Tuples[i]
		if n > 0 {
			last := &out.Tuples[n-1]
			if SameFact(last, &t) && last.T.Te == t.T.Ts &&
				lineage.EquivalentSyntactic(last.Lineage, t.Lineage) {
				last.T.Te = t.T.Te
				continue
			}
		}
		out.Tuples[n] = t
		if fid != nil {
			fid[n] = fid[i]
		}
		n++
	}
	out.Tuples = out.Tuples[:n]
	if fid != nil {
		out.fid = fid[:n]
	}
	return out
}

// Equal reports whether two relations contain the same tuples (same fact,
// interval, syntactically equivalent lineage and probability within 1e-9),
// ignoring order. It is used heavily by the cross-validation test suite.
func Equal(a, b *Relation) bool {
	return Diff(a, b) == ""
}

// Diff returns a human-readable description of the first difference between
// the two relations, or "" when they are equal up to order.
func Diff(a, b *Relation) string {
	as, bs := a.Clone(), b.Clone()
	as.Sort()
	bs.Sort()
	if len(as.Tuples) != len(bs.Tuples) {
		return fmt.Sprintf("cardinality %d vs %d", len(as.Tuples), len(bs.Tuples))
	}
	for i := range as.Tuples {
		x, y := &as.Tuples[i], &bs.Tuples[i]
		switch {
		case !SameFact(x, y):
			return fmt.Sprintf("tuple %d: fact %s vs %s", i, x.Fact, y.Fact)
		case x.T != y.T:
			return fmt.Sprintf("tuple %d (%s): interval %s vs %s", i, x.Fact, x.T, y.T)
		case !lineage.EquivalentSyntactic(x.Lineage, y.Lineage):
			return fmt.Sprintf("tuple %d (%s %s): lineage %s vs %s", i, x.Fact, x.T, x.Lineage, y.Lineage)
		case math.Abs(x.Prob-y.Prob) > 1e-9:
			return fmt.Sprintf("tuple %d (%s %s): prob %v vs %v", i, x.Fact, x.T, x.Prob, y.Prob)
		}
	}
	return ""
}

// String renders the relation as a small table, ordered by (fact, Ts).
func (r *Relation) String() string {
	c := r.Clone()
	c.Sort()
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s):\n", r.Schema.Name, strings.Join(r.Schema.Attrs, ","))
	for i := range c.Tuples {
		fmt.Fprintf(&b, "  %s\n", c.Tuples[i])
	}
	return b.String()
}

// ComputeProbs valuates the lineage probability of every tuple in place
// (exact: linear for 1OF lineage, Shannon expansion otherwise).
func (r *Relation) ComputeProbs() {
	r.mutable("ComputeProbs")
	for i := range r.Tuples {
		r.Tuples[i].ComputeProb()
	}
}
