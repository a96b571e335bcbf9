package tpset

import (
	"encoding/json"
	"io"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/server"
)

// Re-exported model types. The aliases expose the full method sets of the
// internal implementations as public API.
type (
	// Relation is a duplicate-free temporal-probabilistic relation.
	Relation = relation.Relation
	// Tuple is a TP tuple (F, λ, T, p).
	Tuple = relation.Tuple
	// Fact is the conventional-attribute part of a tuple.
	Fact = relation.Fact
	// Schema names a relation and its conventional attributes.
	Schema = relation.Schema
	// Interval is a half-open interval [Ts, Te) over the time domain.
	Interval = interval.Interval
	// Time is a point of the time domain ΩT.
	Time = interval.Time
	// Lineage is an immutable Boolean lineage formula.
	Lineage = lineage.Expr
	// Window is a lineage-aware temporal window (F, winTs, winTe, λr, λs).
	Window = core.Window
	// Stats summarizes a relation (Table IV metrics).
	Stats = relation.Stats
	// Query is a parsed TP set query (Def. 4).
	Query = query.Node
	// Options tunes the set-operation drivers.
	Options = core.Options
	// Op identifies a TP set operation.
	Op = core.Op
)

// The three TP set operations.
const (
	OpUnion     = core.OpUnion
	OpIntersect = core.OpIntersect
	OpExcept    = core.OpExcept
)

// NewRelation returns an empty relation with the given name and
// conventional attribute names.
func NewRelation(name string, attrs ...string) *Relation {
	return relation.New(relation.NewSchema(name, attrs...))
}

// F builds a fact from attribute values.
func F(values ...string) Fact { return relation.NewFact(values...) }

// NewInterval returns [ts, te); it panics when ts >= te.
func NewInterval(ts, te Time) Interval { return interval.New(ts, te) }

// InternAll binds the given relations to one shared fact dictionary, so
// set operations between any of them — and whole query trees over them —
// compare facts by dense integer id instead of by key string in every
// sort, sweep and shard cut. Data loaded through csvio or
// generated by datagen arrives interned already; call this after
// assembling relations from multiple sources (it is what cmd/tpquery
// does after loading its CSV files). Output is bit-identical either way.
func InternAll(rels ...*Relation) { relation.InternAll(rels...) }

// Union computes r ∪Tp s: at each time point, the facts with non-zero
// probability to be in r or in s (lineage or(λr, λs)).
func Union(r, s *Relation) (*Relation, error) { return Apply(OpUnion, r, s, Options{}) }

// Intersect computes r ∩Tp s: at each time point, the facts with non-zero
// probability to be in r and in s (lineage and(λr, λs)).
func Intersect(r, s *Relation) (*Relation, error) { return Apply(OpIntersect, r, s, Options{}) }

// Except computes r −Tp s: at each time point, the facts with non-zero
// probability to be in r and not in s (lineage andNot(λr, λs)).
func Except(r, s *Relation) (*Relation, error) { return Apply(OpExcept, r, s, Options{}) }

// Apply computes op(r, s) — what Union, Intersect and Except call with
// the zero Options — as the two-leaf plan "r op s" on the execution
// engine, with a worker budget of opts.Parallelism (the zero value
// resolves to runtime.GOMAXPROCS(0), so the operation scales with the
// hardware unless pinned to 1). The inputs are prepared once — copied,
// interned and sorted where they are not already on one dictionary and
// in order; above one worker, inputs large enough to be worth it are
// then cut at fact boundaries into zero-copy fact-range shards, swept
// concurrently, and the shard outputs concatenated in shard order, which
// is canonical order. The result is tuple-for-tuple the same at every
// budget. Options.AssumeSorted skips the sort; leaves that do not
// already share a dictionary and a fid column are cloned and bound in
// O(n), so the inputs are never written either way. The inputs must be
// duplicate-free (no two tuples of one fact overlap in time — relations
// read by csvio or admitted by the server are): intersection and
// difference skip, by binary search over a fact's end points, the
// stretches of one input that the other cannot meet. Options.Validate
// checks inputs of unknown provenance and returns an error instead of an
// unspecified result.
func Apply(op Op, r, s *Relation, opts Options) (*Relation, error) {
	return engine.New(engine.Config{Workers: opts.Workers()}).Apply(op, r, s, opts)
}

// Windows exposes the raw LAWA window stream for the two relations; mainly
// useful for inspection and teaching (cf. Example 3 of the paper).
func Windows(r, s *Relation) []Window { return core.Windows(r, s) }

// Lineage constructors: variables and the concatenation functions of
// Table I.
var (
	// NewVar returns an atomic lineage variable with probability p.
	NewVar = lineage.Var
	// And returns (l)∧(r).
	And = lineage.And
	// Or returns (l)∨(r), or the non-nil operand when the other is null.
	Or = lineage.Or
	// AndNot returns (l) when r is null and (l)∧¬(r) otherwise.
	AndNot = lineage.AndNot
	// Not returns ¬(e).
	Not = lineage.Not
)

// ParseQuery parses the TP set query surface syntax, e.g. "c - (a | b)" or
// "sigma[Product='milk'](c) & a". See the query package for the grammar.
func ParseQuery(input string) (Query, error) { return query.Parse(input) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(input string) Query { return query.MustParse(input) }

// Eval evaluates a parsed query over named relations with LAWA, on the
// execution engine with a worker budget of runtime.GOMAXPROCS(0) — the
// default Apply resolves too. It runs the plan the query service runs:
// selections are pushed below the set operations as far as db's schemas
// allow (Fig. 6), and a leaf read only through them is cut down before
// it is sorted. The result is in canonical (fact, Ts, Te) order, in a
// tuple array allocated once at its exact length
// (cap(Tuples) == len(Tuples)). Neither q nor the input relations are
// modified; the relations need not be sorted.
func Eval(q Query, db map[string]*Relation) (*Relation, error) {
	return EvalParallel(q, db, Options{}.Workers())
}

// EvalParallel is Eval with an explicit worker budget. Above one, inputs
// large enough to be worth it are prepared once (copied where they
// need it, interned into one dictionary, sorted — the leaves in
// parallel; an input already bound and in order is read in place) and
// cut at fact boundaries into fact-range shards; a pool of workers runs
// the whole query per shard and the shard streams are concatenated in
// shard order, which is canonical order; 1 evaluates sequentially, and
// workers below one selects runtime.GOMAXPROCS(0). The result is the
// same at every budget.
func EvalParallel(q Query, db map[string]*Relation, workers int) (*Relation, error) {
	return engine.New(engine.Config{Workers: workers}).EvalCursor(query.PushDown(q, db), db, core.Options{})
}

// IsNonRepeating reports whether every relation occurs at most once in q;
// such queries have PTIME data complexity (Theorem 1 / Corollary 1).
func IsNonRepeating(q Query) bool { return query.IsNonRepeating(q) }

// ComputeStats summarizes a relation with the Table IV metrics.
func ComputeStats(r *Relation) Stats { return relation.ComputeStats(r) }

// OverlapFactor computes the §VII-B overlapping factor of an input pair.
func OverlapFactor(r, s *Relation) float64 { return relation.OverlapFactor(r, s) }

// SelectEq computes σ[attr = value](r): the tuples whose attribute equals
// the value. It runs the plan Eval runs for sigma[attr='value'](r), so
// the result is in canonical (fact, Ts, Te) order and bound to a fact
// dictionary like every Eval result, and an unknown attribute is the
// plan's error. r is not modified and need not be sorted; only the
// selected rows are copied and sorted.
func SelectEq(r *Relation, attr, value string) (*Relation, error) {
	return Eval(&query.Select{Attr: attr, Value: value, Input: &query.Rel{Name: r.Schema.Name}},
		map[string]*Relation{r.Schema.Name: r})
}

// SimplifyLineage applies sound syntactic rewrites (double negation,
// idempotence, absorption) that can shrink the repeated-variable patterns
// produced by repeating queries — sometimes back into the tractable 1OF
// class. Semantics (possible-worlds probability) is preserved.
func SimplifyLineage(e *Lineage) *Lineage { return lineage.Simplify(e) }

// ParseLineage parses a rendered lineage formula (e.g. "c1∧¬(a1∨b1)"; the
// ASCII spellings &, |, !, * and + are accepted). Variable probabilities
// are resolved through the probs callback. A nil result with nil error is
// the null lineage.
func ParseLineage(input string, probs func(id string) (float64, error)) (*Lineage, error) {
	return lineage.Parse(input, probs)
}

// CanonicalQuery renders a parsed query in the canonical, re-parseable
// ASCII surface syntax: fully parenthesized, whitespace- and
// spelling-normalized ("union" and "|" render identically). Structurally
// equal trees always render identically, which is what the query service
// (cmd/tpserve) keys its result cache on.
func CanonicalQuery(q Query) string { return query.Canonical(q) }

// MarshalRelationJSON renders a relation in the JSON wire format of the
// query service (cmd/tpserve): one object per tuple with fact values,
// rendered lineage, interval bounds, probability and — for formula
// lineage — the variables' marginal probabilities. Unlike the CSV layout,
// the JSON codec round-trips full lineage structure.
func MarshalRelationJSON(r *Relation) ([]byte, error) {
	return json.Marshal(server.EncodeRelation(r, 0))
}

// UnmarshalRelationJSON reconstructs a relation from the JSON wire format,
// re-parsing every lineage formula. name, when non-empty, overrides the
// name stored in the payload. The result is in canonical (fact, Ts, Te)
// order and bound to a fact dictionary; a payload that breaks
// duplicate-freeness (Def. 1) is refused with the text the query
// service's PUT answers with 422.
func UnmarshalRelationJSON(data []byte, name string) (*Relation, error) {
	var rj server.RelationJSON
	if err := json.Unmarshal(data, &rj); err != nil {
		return nil, err
	}
	return server.DecodeRelation(rj, name)
}

// ReadCSV loads a base relation from CSV (columns: facts..., lineage id,
// ts, te, p). The rows come back in canonical (fact, Ts, Te) order, not
// the file's, bound to a fact dictionary and checked for
// duplicate-freeness (Def. 1).
func ReadCSV(rd io.Reader, name string) (*Relation, error) { return csvio.Read(rd, name) }

// WriteCSV stores a relation as CSV.
func WriteCSV(w io.Writer, r *Relation) error { return csvio.Write(w, r) }

// ReadCSVFile loads a relation from the file at path, as ReadCSV does.
func ReadCSVFile(path, name string) (*Relation, error) { return csvio.ReadFile(path, name) }

// WriteCSVFile stores a relation at path.
func WriteCSVFile(path string, r *Relation) error { return csvio.WriteFile(path, r) }
