package lineage

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/tpset/tpset/internal/keys"
)

// vars is the process-wide intern arena for lineage variable names: every
// Expr leaf stores a dense keys.VarID instead of the name string, so
// one-occurrence checks and Shannon-expansion bookkeeping run on
// integers. The arena is append-only: it grows with every distinct
// variable name the process ever ingests and never shrinks, even when
// the relations carrying those names are dropped.
// Queries create no new names (operators only combine existing leaves),
// so growth tracks cumulative ingest — a deliberate trade-off that a
// long-lived server with heavy catalog churn over ever-fresh identifier
// sets would eventually need to scope (e.g. per catalog generation).
var vars = keys.NewInterner()

// Kind discriminates the four node types of a lineage expression.
type Kind uint8

// Expression node kinds.
const (
	KindVar Kind = iota
	KindNot
	KindAnd
	KindOr
)

// Expr is an immutable lineage expression. A nil *Expr represents the
// paper's "null" lineage: the absence of any tuple with the given fact at a
// time point.
//
// A node is its formula and nothing else: 32 bytes (TestExprIs32Bytes),
// kind and leaf id sharing the first word. One node is allocated per
// output window, so its size is most of what a result-heavy query
// allocates; properties of the formula (its size, 1OF) are computed by
// whoever asks, not carried by every node.
type Expr struct {
	kind Kind
	// id and prob are set for KindVar nodes: the interned base-tuple
	// identifier and its marginal probability. The name is recovered from
	// the package arena for rendering and the public API.
	id   keys.VarID
	prob float64
	// operands: Not has one, And/Or have exactly two (formulas are built by
	// the binary concatenation functions, as in the paper).
	left, right *Expr
}

// checkMarginal panics unless p ∈ (0, 1]. NaN compares false with
// everything, so the test is for membership, not for the two ways out.
func checkMarginal(id string, p float64) {
	if !(p > 0 && p <= 1) {
		panic(fmt.Sprintf("lineage: probability %v of %q outside (0,1]", p, id))
	}
}

// Var returns an atomic lineage expression for a base tuple with the given
// identifier and marginal probability p ∈ (0, 1].
func Var(id string, p float64) *Expr {
	checkMarginal(id, p)
	vid := vars.Intern(id)
	return &Expr{kind: KindVar, id: vid, prob: p}
}

// Vars returns atomic lineage expressions for a batch of base tuples,
// pairwise equivalent to Var(names[i], probs[i]). The batch interns all
// names under one arena lock and allocates the leaves in one slab, so a
// segment restore or a CSV load that materializes tens of thousands of
// leaves pays one lock round-trip and three allocations, not one of each
// per leaf.
func Vars(names []string, probs []float64) []*Expr {
	if len(names) != len(probs) {
		panic(fmt.Sprintf("lineage: Vars with %d names, %d probabilities", len(names), len(probs)))
	}
	vids := vars.InternAll(names)
	slab := make([]Expr, len(names))
	out := make([]*Expr, len(names))
	for i, vid := range vids {
		checkMarginal(names[i], probs[i])
		slab[i] = Expr{kind: KindVar, id: vid, prob: probs[i]}
		out[i] = &slab[i]
	}
	return out
}

// idName resolves the leaf's interned identifier back to its name.
func (e *Expr) idName() string { return vars.Name(e.id) }

// Not returns ¬e. It panics on a nil operand because Table I never negates
// null lineage (andNot(λ1, null) = λ1).
func Not(e *Expr) *Expr {
	if e == nil {
		panic("lineage: Not(nil)")
	}
	return &Expr{kind: KindNot, left: e}
}

// And returns (l) ∧ (r), the and() function of Table I. Both operands must
// be non-nil: TP set intersection only emits output when both inputs are
// valid.
func And(l, r *Expr) *Expr {
	if l == nil || r == nil {
		panic("lineage: And with nil operand")
	}
	return &Expr{kind: KindAnd, left: l, right: r}
}

// Or returns the or() function of Table I: (l) ∨ (r), or the single non-nil
// operand when the other is null. Both operands nil is an error.
func Or(l, r *Expr) *Expr {
	switch {
	case l == nil && r == nil:
		panic("lineage: Or(nil, nil)")
	case l == nil:
		return r
	case r == nil:
		return l
	}
	return &Expr{kind: KindOr, left: l, right: r}
}

// AndNot returns the andNot() function of Table I: (l) when r is null, and
// (l) ∧ ¬(r) otherwise. l must be non-nil.
func AndNot(l, r *Expr) *Expr {
	if l == nil {
		panic("lineage: AndNot with nil left operand")
	}
	if r == nil {
		return l
	}
	// The conjunction and the negation are one allocation.
	n := new([2]Expr)
	n[1] = Expr{kind: KindNot, left: r}
	n[0] = Expr{kind: KindAnd, left: l, right: &n[1]}
	return &n[0]
}

// Kind returns the node type.
func (e *Expr) Kind() Kind { return e.kind }

// ID returns the base-tuple identifier of a KindVar node ("" otherwise).
func (e *Expr) ID() string {
	if e.kind != KindVar {
		return ""
	}
	return e.idName()
}

// VarProb returns the marginal probability of a KindVar node.
func (e *Expr) VarProb() float64 { return e.prob }

// VarID returns the interned identifier of a KindVar node: the key of
// its slot in the marginal-text table.
func (e *Expr) VarID() keys.VarID { return e.id }

// Operands returns the children of the node (nil for variables; right is nil
// for negations).
func (e *Expr) Operands() (left, right *Expr) { return e.left, e.right }

// Size returns the number of nodes in the formula, counted by a walk.
func (e *Expr) Size() int {
	if e == nil {
		return 0
	}
	return 1 + e.left.Size() + e.right.Size()
}

// IsOneOccurrence reports whether the formula is in one-occurrence form
// (1OF): no tuple identifier occurs more than once. Per Theorem 1 of the
// paper, every non-repeating TP set query over duplicate-free relations
// yields 1OF lineage, and 1OF probabilities are computable in linear time.
// Up to eight leaves — every formula one set operation builds from base
// tuples — are compared pairwise on the stack; a larger formula's ids
// are sorted. The formula, which concurrent readers may share, is only
// read.
func (e *Expr) IsOneOccurrence() bool {
	if e == nil || e.kind == KindVar {
		return true
	}
	var ids [8]keys.VarID
	if n := e.leafIDs(&ids, 0); n >= 0 {
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if ids[i] == ids[j] {
					return false
				}
			}
		}
		return true
	}
	var buf [16]VarProb // typical formulas decide without allocating
	leaves := e.appendLeaves(buf[:0])
	slices.SortFunc(leaves, func(a, b VarProb) int { return cmp.Compare(a.ID, b.ID) })
	for i := 1; i < len(leaves); i++ {
		if leaves[i].ID == leaves[i-1].ID {
			return false
		}
	}
	return true
}

// Vars appends the distinct variable identifiers of the formula to dst,
// sorted and de-duplicated, and returns the extended slice.
func (e *Expr) Vars(dst []string) []string {
	for _, vp := range e.AppendVarProbs(nil, vars.Names()) {
		dst = append(dst, vp.Name)
	}
	return dst
}

// String renders the formula with the paper's connective symbols, fully
// parenthesized for unambiguity, e.g. "c1∧¬(a1∨b1)".
func (e *Expr) String() string {
	var buf [64]byte // typical formulas render without regrowth
	return string(e.AppendString(buf[:0], vars.Names()))
}

// VarNames returns a snapshot of the variable arena (keys.Interner.Names)
// for AppendString and AppendVarProbs: it resolves every formula that
// existed when it was taken — the arena is append-only — so a caller
// rendering many formulas takes the arena lock once for all of them, not
// once per formula. The slice is shared and must not be modified.
func VarNames() []string { return vars.Names() }

// AppendString appends the rendering of e — the bytes of String() — to
// dst and returns the extended slice. names is a VarNames snapshot taken
// after e was built, so rendering into a reused buffer neither allocates
// nor touches the arena lock; a table indexed the same way that holds
// each name in another form — the query service's JSON-escaped view —
// renders the formula in that form, with the connectives and
// parentheses as they are.
func (e *Expr) AppendString(dst []byte, names []string) []byte {
	if e == nil {
		return append(dst, "null"...)
	}
	return e.appendRender(dst, names)
}

func (e *Expr) appendRender(dst []byte, names []string) []byte {
	switch e.kind {
	case KindVar:
		return append(dst, names[e.id]...)
	case KindNot:
		dst = append(dst, "¬"...)
		return e.left.appendOperand(dst, names, e.left.kind != KindVar)
	case KindAnd:
		dst = e.left.appendOperand(dst, names, e.left.kind == KindOr)
		dst = append(dst, "∧"...)
		return e.right.appendOperand(dst, names, e.right.kind == KindOr)
	default: // KindOr
		dst = e.left.appendOperand(dst, names, e.left.kind == KindAnd)
		dst = append(dst, "∨"...)
		return e.right.appendOperand(dst, names, e.right.kind == KindAnd)
	}
}

// appendOperand renders e as an operand, parenthesized when the parent
// connective needs it: a negated non-variable, or a ∧/∨ operand of the
// other binary kind.
func (e *Expr) appendOperand(dst []byte, names []string, paren bool) []byte {
	if !paren {
		return e.appendRender(dst, names)
	}
	dst = append(dst, '(')
	dst = e.appendRender(dst, names)
	return append(dst, ')')
}

// Canonical returns a canonical syntactic rendering: associativity is
// flattened and operands of ∧/∨ are sorted, so that formulas that differ
// only in operand order or grouping compare equal. This implements the
// paper's footnote 1: change preservation compares lineage syntactically
// rather than solving co-NP-complete equivalence.
func (e *Expr) Canonical() string {
	if e == nil {
		return "null"
	}
	return e.canonical()
}

func (e *Expr) canonical() string {
	switch e.kind {
	case KindVar:
		return e.idName()
	case KindNot:
		return "!(" + e.left.canonical() + ")"
	case KindAnd, KindOr:
		var parts []string
		e.flatten(e.kind, &parts)
		sort.Strings(parts)
		op := "&"
		if e.kind == KindOr {
			op = "|"
		}
		return "(" + strings.Join(parts, op) + ")"
	}
	panic("lineage: unknown kind")
}

func (e *Expr) flatten(kind Kind, parts *[]string) {
	if e.kind == kind {
		e.left.flatten(kind, parts)
		e.right.flatten(kind, parts)
		return
	}
	*parts = append(*parts, e.canonical())
}

// EquivalentSyntactic reports whether a and b have equal canonical
// renderings. Either may be nil.
func EquivalentSyntactic(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b || a.canonical() == b.canonical()
}

// Prob computes the marginal probability of the formula under the
// tuple-independence assumption.
//
// Prob decides 1OF itself (IsOneOccurrence, one walk over the leaves):
// for 1OF formulas the linear-time independent-subformula rules apply
// exactly (Corollary 1 of the paper). For non-1OF formulas Prob falls back
// to exact Shannon expansion, which is exponential in the number of shared
// variables in the worst case (the problem is #P-hard in general, see
// Khanna et al.).
func (e *Expr) Prob() float64 {
	if e == nil {
		return 0
	}
	if e.IsOneOccurrence() {
		return e.probIndependent()
	}
	return e.probShannon(make(map[keys.VarID]bool))
}

// probIndependent evaluates assuming all subformulas of every connective are
// independent, which holds exactly when the formula is 1OF.
func (e *Expr) probIndependent() float64 {
	switch e.kind {
	case KindVar:
		return e.prob
	case KindNot:
		return 1 - e.left.probIndependent()
	case KindAnd:
		return e.left.probIndependent() * e.right.probIndependent()
	default: // KindOr
		pl := e.left.probIndependent()
		pr := e.right.probIndependent()
		return 1 - (1-pl)*(1-pr)
	}
}

// probShannon performs Shannon expansion on the most frequent unassigned
// variable: P(λ) = p(v)·P(λ[v:=true]) + (1−p(v))·P(λ[v:=false]).
// assign holds the current partial assignment, keyed by interned id.
func (e *Expr) probShannon(assign map[keys.VarID]bool) float64 {
	v, p, shared := e.mostFrequentSharedVar(assign)
	if !shared {
		// Every remaining variable occurs once: residual evaluation under
		// the partial assignment uses the independent rules.
		pr, known := e.evalPartial(assign)
		if known {
			if pr {
				return 1
			}
			return 0
		}
		return e.probPartialIndependent(assign)
	}
	assign[v] = true
	pt := e.probShannon(assign)
	assign[v] = false
	pf := e.probShannon(assign)
	delete(assign, v)
	return p*pt + (1-p)*pf
}

// mostFrequentSharedVar returns the unassigned variable with the highest
// occurrence count if that count is >= 2. Equal counts tie-break on the
// variable *name* (not the interned id), so the expansion order — and
// with it the floating-point rounding of the result — is exactly the
// pre-interning one regardless of interning order.
func (e *Expr) mostFrequentSharedVar(assign map[keys.VarID]bool) (keys.VarID, float64, bool) {
	counts := make(map[keys.VarID]int)
	probs := make(map[keys.VarID]float64)
	for _, l := range e.appendLeaves(nil) {
		if _, done := assign[l.ID]; !done {
			counts[l.ID]++
			probs[l.ID] = l.Prob
		}
	}
	var best keys.VarID
	bestN := 0
	for v, n := range counts {
		if n > bestN || (n == bestN && vars.Name(v) < vars.Name(best)) {
			best, bestN = v, n
		}
	}
	if bestN >= 2 {
		return best, probs[best], true
	}
	return 0, 0, false
}

// evalPartial attempts to decide the formula under the partial assignment.
// known is true when the truth value no longer depends on free variables.
func (e *Expr) evalPartial(assign map[keys.VarID]bool) (value, known bool) {
	switch e.kind {
	case KindVar:
		v, ok := assign[e.id]
		return v, ok
	case KindNot:
		v, ok := e.left.evalPartial(assign)
		return !v, ok
	case KindAnd:
		lv, lk := e.left.evalPartial(assign)
		rv, rk := e.right.evalPartial(assign)
		if lk && !lv || rk && !rv {
			return false, true
		}
		return lv && rv, lk && rk
	default: // KindOr
		lv, lk := e.left.evalPartial(assign)
		rv, rk := e.right.evalPartial(assign)
		if lk && lv || rk && rv {
			return true, true
		}
		return lv || rv, lk && rk
	}
}

// probPartialIndependent evaluates probability treating assigned variables
// as constants and the remaining (pairwise-distinct) variables as
// independent.
func (e *Expr) probPartialIndependent(assign map[keys.VarID]bool) float64 {
	switch e.kind {
	case KindVar:
		if v, ok := assign[e.id]; ok {
			if v {
				return 1
			}
			return 0
		}
		return e.prob
	case KindNot:
		return 1 - e.left.probPartialIndependent(assign)
	case KindAnd:
		return e.left.probPartialIndependent(assign) * e.right.probPartialIndependent(assign)
	default:
		pl := e.left.probPartialIndependent(assign)
		pr := e.right.probPartialIndependent(assign)
		return 1 - (1-pl)*(1-pr)
	}
}

// Eval returns the truth value of the formula under a complete assignment of
// its variables. Missing variables default to false.
func (e *Expr) Eval(assign map[string]bool) bool {
	if e == nil {
		return false
	}
	m := make(map[keys.VarID]bool, len(assign))
	for name, v := range assign {
		if id, ok := vars.Lookup(name); ok {
			m[id] = v
		}
	}
	return e.evalID(m)
}

// evalID is Eval over an interned assignment; missing ids are false.
func (e *Expr) evalID(assign map[keys.VarID]bool) bool {
	switch e.kind {
	case KindVar:
		return assign[e.id]
	case KindNot:
		return !e.left.evalID(assign)
	case KindAnd:
		return e.left.evalID(assign) && e.right.evalID(assign)
	default:
		return e.left.evalID(assign) || e.right.evalID(assign)
	}
}

// VarProbs records the marginal probability of every variable occurring
// in the formula into probs (id → marginal). A nil receiver is a no-op.
// The query service's wire codec ships these alongside rendered formulas
// so the lineage parser can reconstruct them.
func (e *Expr) VarProbs(probs map[string]float64) {
	if e == nil {
		return
	}
	names := vars.Names()
	var buf [16]VarProb
	for _, l := range e.appendLeaves(buf[:0]) {
		probs[names[l.ID]] = l.Prob
	}
}

// VarProb is one variable of a formula with its marginal probability
// and its interned id (the key of MarginalTexts).
type VarProb struct {
	Name string
	Prob float64
	ID   keys.VarID
}

// AppendVarProbs appends the distinct variables of the formula with
// their marginals to dst, sorted by name in byte order, and returns the
// extended slice: the content of the VarProbs map in the order
// encoding/json writes a map, without building one. A variable that
// occurs with differing marginals keeps its last occurrence in
// left-to-right order, as repeated map assignment does. names is a
// VarNames snapshot taken after e was built; a nil receiver appends
// nothing.
func (e *Expr) AppendVarProbs(dst []VarProb, names []string) []VarProb {
	if e == nil {
		return dst
	}
	if l, r, ok := e.twoLeaves(); ok {
		// What ∩, ∪ and − build from two base tuples: one compare
		// orders them. Equal names take the general path, which keeps
		// the last.
		nl, nr := names[l.id], names[r.id]
		if nr < nl {
			return append(dst, VarProb{nr, r.prob, r.id}, VarProb{nl, l.prob, l.id})
		}
		if nl < nr {
			return append(dst, VarProb{nl, l.prob, l.id}, VarProb{nr, r.prob, r.id})
		}
	}
	start := len(dst)
	dst = e.appendLeaves(dst)
	vps := dst[start:]
	for i := range vps {
		vps[i].Name = names[vps[i].ID]
	}
	// Stable, so equal names stay in occurrence order and "last wins"
	// is the last element of each run.
	slices.SortStableFunc(vps, func(a, b VarProb) int { return cmp.Compare(a.Name, b.Name) })
	n := 0
	for i := range vps {
		if i+1 < len(vps) && vps[i+1].Name == vps[i].Name {
			continue
		}
		vps[n] = vps[i]
		n++
	}
	return dst[:start+n]
}

// leafIDs writes the leaf ids of e, repeats included, into ids from
// position n on and returns the count written so far, or −1 once e has
// more leaves than ids holds.
func (e *Expr) leafIDs(ids *[8]keys.VarID, n int) int {
	switch e.kind {
	case KindVar:
		if n == len(ids) {
			return -1
		}
		ids[n] = e.id
		return n + 1
	case KindNot:
		return e.left.leafIDs(ids, n)
	default:
		if n = e.left.leafIDs(ids, n); n < 0 {
			return n
		}
		return e.right.leafIDs(ids, n)
	}
}

// twoLeaves returns the leaves of a formula var ∘ var or var ∘ ¬var,
// ∘ ∈ {∧, ∨}, left to right, and reports whether e has that shape.
func (e *Expr) twoLeaves() (l, r *Expr, ok bool) {
	if e.kind != KindAnd && e.kind != KindOr {
		return nil, nil, false
	}
	l, r = e.left, e.right
	if r.kind == KindNot {
		r = r.left
	}
	return l, r, l.kind == KindVar && r.kind == KindVar
}

// appendLeaves appends every leaf of e in left-to-right order, repeats
// included, as its id and marginal (Name left empty): the one walk that
// enumerates a formula's variables.
func (e *Expr) appendLeaves(dst []VarProb) []VarProb {
	switch e.kind {
	case KindVar:
		return append(dst, VarProb{Prob: e.prob, ID: e.id})
	case KindNot:
		return e.left.appendLeaves(dst)
	default:
		return e.right.appendLeaves(e.left.appendLeaves(dst))
	}
}

// ProbPossibleWorlds computes the exact marginal probability by enumerating
// all 2^k possible worlds of the formula's k variables. It is the oracle
// used by the test suite and panics when k > 24.
func (e *Expr) ProbPossibleWorlds() float64 {
	if e == nil {
		return 0
	}
	vps := e.AppendVarProbs(nil, vars.Names())
	if len(vps) > 24 {
		panic(fmt.Sprintf("lineage: possible-worlds enumeration over %d variables", len(vps)))
	}
	assign := make(map[keys.VarID]bool, len(vps))
	total := 0.0
	for world := 0; world < 1<<uint(len(vps)); world++ {
		wp := 1.0
		for i, vp := range vps {
			on := world&(1<<uint(i)) != 0
			assign[vp.ID] = on
			if on {
				wp *= vp.Prob
			} else {
				wp *= 1 - vp.Prob
			}
		}
		if wp == 0 {
			continue
		}
		if e.evalID(assign) {
			total += wp
		}
	}
	if total > 1 {
		// Guard against floating-point accumulation slightly above 1.
		total = math.Min(total, 1)
	}
	return total
}
