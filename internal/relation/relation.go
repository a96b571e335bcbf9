package relation

import (
	"fmt"
	"sort"
	"strings"

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

// Tuple is a TP tuple (F, λ, T, p). Prob caches the probabilistic valuation
// of Lineage; for base tuples it is the base probability, for derived tuples
// it is filled by the operators (linear-time for 1OF lineage).
//
// A tuple may additionally be interned against a keys.Dict (fid/dict):
// when two tuples carry the same non-nil dict, their facts compare by
// FactID — a single integer compare — instead of by key string. The
// invariant is that fid == dict.ID(Fact.Key()) whenever dict is non-nil;
// Relation.Bind establishes it and every comparison helper falls back to
// the string key when the dictionaries differ or are absent.
type Tuple struct {
	Fact    Fact
	Lineage *lineage.Expr
	T       interval.Interval
	Prob    float64

	key  string      // cached Fact.Key()
	fid  keys.FactID // interned fact id, valid iff dict != nil
	dict *keys.Dict
}

// FactKey is the interned identity of a fact: the canonical key string,
// the dictionary and the packed id (KeyIn builds one from a fid column
// entry). It is a small value type that the window advancer builds once
// per fact group and operator cursors stamp onto derived tuples, so
// output inherits the inputs' interning.
type FactKey struct {
	key  string
	id   keys.FactID
	dict *keys.Dict
}

// SameFact reports whether two tuples hold the same fact, using the
// interned fast path when available.
func SameFact(a, b *Tuple) bool {
	if a.dict != nil && a.dict == b.dict {
		return a.fid == b.fid
	}
	return a.Key() == b.Key()
}

// NewBase returns a base tuple: its lineage is the atomic variable id with
// marginal probability p, valid over [ts, te).
func NewBase(fact Fact, id string, ts, te interval.Time, p float64) Tuple {
	return Tuple{
		Fact:    fact,
		Lineage: lineage.Var(id, p),
		T:       interval.New(ts, te),
		Prob:    p,
		key:     fact.Key(),
	}
}

// NewDerived returns a result tuple with the given lineage; its probability
// is computed from the lineage (exact and linear when the lineage is 1OF).
func NewDerived(fact Fact, lam *lineage.Expr, iv interval.Interval) Tuple {
	return Tuple{Fact: fact, Lineage: lam, T: iv, Prob: lam.Prob(), key: fact.Key()}
}

// NewDerivedLazy returns a result tuple without valuating its lineage
// probability (Prob is NaN-free zero; call ComputeProb later). The set
// operation benchmarks use this to time interval/lineage computation
// separately from probability valuation, mirroring the paper's setup where
// confidence computation is a separate stage.
func NewDerivedLazy(fact Fact, lam *lineage.Expr, iv interval.Interval) Tuple {
	return Tuple{Fact: fact, Lineage: lam, T: iv, key: fact.Key()}
}

// NewDerivedLazyKeyed is NewDerivedLazy with a precomputed comparison
// key: the derived tuple reuses the key string and inherits the interning
// of the input tuple the key came from, so operator output stays on the
// integer-compare path without re-deriving or re-interning anything.
func NewDerivedLazyKeyed(fact Fact, k FactKey, lam *lineage.Expr, iv interval.Interval) Tuple {
	return Tuple{Fact: fact, Lineage: lam, T: iv, key: k.key, fid: k.id, dict: k.dict}
}

// InitDerivedLazyKeyed initializes t in place, equivalent to assigning
// NewDerivedLazyKeyed's result. Bulk decode paths (segment restore) fill
// preallocated tuple slabs with it instead of copying ~100-byte Tuple
// values through the stack per element.
func (t *Tuple) InitDerivedLazyKeyed(fact Fact, k FactKey, lam *lineage.Expr, iv interval.Interval) {
	t.Fact = fact
	t.Lineage = lam
	t.T = iv
	t.key = k.key
	t.fid = k.id
	t.dict = k.dict
}

// Key returns the cached canonical fact key.
func (t *Tuple) Key() string {
	if t.key == "" && len(t.Fact) > 0 {
		t.key = t.Fact.Key()
	}
	return t.key
}

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
// A relation may be bound to a fact dictionary (Bind, Intern, InternAll):
// then every tuple carries its FactID and the sort, duplicate check and
// coalescing run on integer compares. dict != nil implies every tuple is
// interned against it; Add maintains the invariant by interning appended
// tuples (or dropping the binding when a fact is unknown to the dict).
type Relation struct {
	Schema Schema
	Tuples []Tuple

	dict *keys.Dict
	// fid caches the fid column (BuildCols); every mutator below clears
	// it, and the FidCol accessor re-checks validity.
	fid []int64
	// region is the foreign memory (an mmap'd segment) fid aliases when
	// SetFidCol installed it; nil for a heap-built column. The
	// tpinvariants build checks every FidCol read against it.
	region []byte
	// frozen marks the relation read-only: mutators panic. Set for
	// relations whose fid column aliases a shared mapping, where an
	// in-place mutation would corrupt memory other snapshots still read.
	frozen bool
}

// clearFidCol drops the cached fid column together with the
// foreign-memory region it may alias; every mutator goes through it so
// a stale region can never be checked against a freshly built heap
// column.
func (r *Relation) clearFidCol() { r.fid, r.region = nil, nil }

// mutable panics when the relation is frozen; every mutator calls it
// first, so an aliased mapping can never be written through a stale
// reference to a restored relation.
func (r *Relation) mutable(op string) {
	if r.frozen {
		panic("relation: " + op + " on frozen relation " + r.Schema.Name)
	}
}

// Freeze marks the relation read-only: Add, Bind, Unbind, Sort,
// ComputeProbs, ComputeProbsMonteCarlo, BuildCols and SetFidCol panic
// afterwards. The segment store freezes restored relations because
// their fid column aliases the shared file mapping; Clone returns an
// unfrozen deep copy, so the catalog's rebind-via-clone admission path
// is unaffected.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether the relation is read-only.
func (r *Relation) Frozen() bool { return r.frozen }

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Add appends a tuple. The caller is responsible for keeping the relation
// duplicate-free; ValidateDuplicateFree checks the invariant.
func (r *Relation) Add(t Tuple) {
	r.mutable("Add")
	r.clearFidCol()
	if r.dict != nil && t.dict != r.dict {
		if id, ok := r.dict.ID(t.Key()); ok {
			t.fid, t.dict = id, r.dict
		} else {
			r.dict = nil
		}
	}
	r.Tuples = append(r.Tuples, t)
}

// Dict returns the dictionary the relation is bound to, or nil.
func (r *Relation) Dict() *keys.Dict { return r.dict }

// Bind interns every tuple against d and binds the relation, enabling
// the integer-compare paths. It reports whether every fact was present
// in d; on a miss the relation is left unbound (tuples seen before the
// miss keep a valid per-tuple interning, which is always self-consistent).
// Binding never reorders tuples, and because dictionaries are
// order-preserving a sorted relation stays sorted across rebinding.
func (r *Relation) Bind(d *keys.Dict) bool {
	r.mutable("Bind")
	r.clearFidCol()
	if d == nil {
		r.Unbind()
		return false
	}
	for i := range r.Tuples {
		t := &r.Tuples[i]
		id, ok := d.ID(t.Key())
		if !ok {
			r.dict = nil
			return false
		}
		t.fid, t.dict = id, d
	}
	r.dict = d
	return true
}

// Unbind clears the relation's and every tuple's interning; comparisons
// fall back to key strings. The pre-interning execution stack is exactly
// the unbound one, which the cross-validation suite and the
// intern-vs-string benchmark exercise through this switch.
func (r *Relation) Unbind() {
	r.mutable("Unbind")
	r.clearFidCol()
	r.dict = nil
	for i := range r.Tuples {
		r.Tuples[i].fid, r.Tuples[i].dict = 0, nil
	}
}

// Intern builds a dictionary over the relation's own facts, binds the
// relation to it and returns it — the ingest-time entry point (csvio,
// datagen, catalog admission).
func (r *Relation) Intern() *keys.Dict {
	ks := make([]string, len(r.Tuples))
	for i := range r.Tuples {
		ks[i] = r.Tuples[i].Key()
	}
	d := keys.BuildDict(ks)
	r.Bind(d)
	return d
}

// InternAll builds one shared dictionary over the facts of all given
// relations and binds each to it. Sharing one dictionary is what makes
// cross-relation comparisons — the window advancer, the engine's shard
// cuts — integer-only across a whole query tree.
func InternAll(rels ...*Relation) *keys.Dict {
	var ks []string
	for _, r := range rels {
		for i := range r.Tuples {
			ks = append(ks, r.Tuples[i].Key())
		}
	}
	d := keys.BuildDict(ks)
	for _, r := range rels {
		r.Bind(d)
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
		if r.dict == nil || (d != nil && r.dict != d) {
			return nil
		}
		d = r.dict
	}
	return d
}

// AdoptBinding rebinds the relation to d when every tuple is already
// interned against it (a cheap pointer scan), and unsets the relation
// dict otherwise. Materialize uses it so operator output over same-dict
// inputs comes out bound without any map lookups.
func (r *Relation) AdoptBinding() {
	if len(r.Tuples) == 0 {
		return
	}
	d := r.Tuples[0].dict
	if d == nil {
		r.dict = nil
		return
	}
	for i := 1; i < len(r.Tuples); i++ {
		if r.Tuples[i].dict != d {
			r.dict = nil
			return
		}
	}
	r.dict = d
}

// AddBase appends a base tuple with a fresh identifier id and probability p.
func (r *Relation) AddBase(fact Fact, id string, ts, te interval.Time, p float64) {
	r.Add(NewBase(fact, id, ts, te, p))
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone returns a deep copy of the relation's tuple slice (lineage trees
// are shared: they are immutable). The interning binding is carried over.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples)), dict: r.dict}
	copy(out.Tuples, r.Tuples)
	return out
}

// Less is the canonical tuple order (fact key, Ts, Te) that Sort
// establishes and every stream — sequential or sharded — emits. When
// both tuples are interned against one dictionary the fact compare is a
// single integer compare — the packed (FactID, Ts, Te) order — which
// agrees with the string order because ids are ranks over the sorted keys.
func Less(a, b *Tuple) bool {
	if a.dict != nil && a.dict == b.dict {
		if a.fid != b.fid {
			return a.fid < b.fid
		}
	} else if ak, bk := a.Key(), b.Key(); ak != bk {
		return ak < bk
	}
	if a.T.Ts != b.T.Ts {
		return a.T.Ts < b.T.Ts
	}
	return a.T.Te < b.T.Te
}

// Sort orders tuples by (fact key, Ts, Te). This is the sort step of Fig. 5
// in the paper and a precondition of the window advancer. A bound
// relation sorts with the pure three-integer comparator.
func (r *Relation) Sort() {
	r.mutable("Sort")
	r.clearFidCol()
	if r.dict != nil {
		sort.Slice(r.Tuples, func(i, j int) bool {
			a, b := &r.Tuples[i], &r.Tuples[j]
			if a.fid != b.fid {
				return a.fid < b.fid
			}
			if a.T.Ts != b.T.Ts {
				return a.T.Ts < b.T.Ts
			}
			return a.T.Te < b.T.Te
		})
		return
	}
	sort.Slice(r.Tuples, func(i, j int) bool {
		return Less(&r.Tuples[i], &r.Tuples[j])
	})
}

// IsSorted reports whether the relation is in (fact, Ts) order.
func (r *Relation) IsSorted() bool {
	if r.dict != nil {
		return sort.SliceIsSorted(r.Tuples, func(i, j int) bool {
			a, b := &r.Tuples[i], &r.Tuples[j]
			if a.fid != b.fid {
				return a.fid < b.fid
			}
			return a.T.Ts < b.T.Ts
		})
	}
	return sort.SliceIsSorted(r.Tuples, func(i, j int) bool {
		a, b := &r.Tuples[i], &r.Tuples[j]
		if ak, bk := a.Key(), b.Key(); ak != bk {
			return ak < bk
		}
		return a.T.Ts < b.T.Ts
	})
}

// ValidateDuplicateFree checks the model invariant: no two distinct tuples
// share a fact over overlapping intervals. It returns a descriptive error
// naming the first violating pair, or nil.
func (r *Relation) ValidateDuplicateFree() error {
	if r.dict != nil {
		// Bound relation: group by interned id — integer map keys, and no
		// key recomputation at all (fids are read-only here, so sharing
		// the relation across concurrent validators stays race-free).
		byID := make(map[keys.FactID][]interval.Interval, len(r.Tuples))
		for i := range r.Tuples {
			t := &r.Tuples[i]
			byID[t.fid] = append(byID[t.fid], t.T)
		}
		for id, ivs := range byID {
			if err := overlapIn(ivs); err != nil {
				return fmt.Errorf("relation %s: duplicate fact %q over %w", r.Schema.Name, r.dict.Key(id), err)
			}
		}
		return nil
	}
	byFact := make(map[string][]interval.Interval, len(r.Tuples))
	for i := range r.Tuples {
		t := &r.Tuples[i]
		// Recompute the key rather than going through Tuple.Key: its lazy
		// caching write would race when concurrent operations validate a
		// shared relation.
		k := t.Fact.Key()
		byFact[k] = append(byFact[k], t.T)
	}
	for key, ivs := range byFact {
		if err := overlapIn(ivs); err != nil {
			return fmt.Errorf("relation %s: duplicate fact %q over %w", r.Schema.Name, key, err)
		}
	}
	return nil
}

// overlapIn sorts the intervals and returns an error naming the first
// overlapping pair, or nil.
func overlapIn(ivs []interval.Interval) error {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Ts < ivs[j].Ts })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Ts < ivs[i-1].Te {
			return fmt.Errorf("overlapping intervals %s and %s", ivs[i-1], ivs[i])
		}
	}
	return nil
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
	out.dict = r.dict
	for i := range r.Tuples {
		tp := &r.Tuples[i]
		if tp.T.Contains(t) {
			c := *tp
			c.T = interval.Interval{Ts: t, Te: t + 1}
			out.Tuples = append(out.Tuples, c)
		}
	}
	return out
}

// LineageAt returns the lineage λ_t^{r,f} of the (unique, by
// duplicate-freeness) tuple with fact key factKey valid at t, or nil
// ("null") when no such tuple exists.
func (r *Relation) LineageAt(factKey string, t interval.Time) *lineage.Expr {
	for i := range r.Tuples {
		tp := &r.Tuples[i]
		if tp.Key() == factKey && tp.T.Contains(t) {
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
	out := r.Clone()
	out.Sort()
	merged := out.Tuples[:0]
	for _, t := range out.Tuples {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if SameFact(last, &t) && last.T.Te == t.T.Ts &&
				lineage.EquivalentSyntactic(last.Lineage, t.Lineage) {
				last.T.Te = t.T.Te
				continue
			}
		}
		merged = append(merged, t)
	}
	out.Tuples = merged
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
		case abs(x.Prob-y.Prob) > 1e-9:
			return fmt.Sprintf("tuple %d (%s %s): prob %v vs %v", i, x.Fact, x.T, x.Prob, y.Prob)
		}
	}
	return ""
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
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

// ComputeProbsMonteCarlo estimates every tuple's probability with n
// possible-world samples per tuple, using the given random source. It is
// the practical fallback for large outputs of repeating (#P-hard) queries
// where exact Shannon expansion would blow up; the standard error per
// tuple is at most 0.5/sqrt(n).
func (r *Relation) ComputeProbsMonteCarlo(n int, rng lineage.RNG) {
	r.mutable("ComputeProbsMonteCarlo")
	for i := range r.Tuples {
		r.Tuples[i].Prob = r.Tuples[i].Lineage.ProbMonteCarlo(n, rng)
	}
}
