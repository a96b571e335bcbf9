package core

import (
	"fmt"
	"runtime"

	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// Options controls the set-operation drivers.
type Options struct {
	// AssumeSorted skips the sort step when the caller guarantees both
	// inputs are already in (fact, Ts) order. The drivers then run without
	// copying the inputs.
	AssumeSorted bool
	// LazyProb leaves the probability of output tuples unvaluated (zero).
	// By default probabilities are computed eagerly, which is linear per
	// tuple for the 1OF lineage produced by non-repeating queries.
	LazyProb bool
	// Validate additionally checks that both inputs are duplicate-free
	// before running (O(n log n)); intended for data of unknown provenance.
	Validate bool
	// Parallelism requests partition-parallel execution with this many
	// workers. Apply in this package is sequential and ignores it;
	// tpset.Apply routes the operation through internal/engine when the
	// resolved count (see Workers) is above one. 0 — the zero value —
	// resolves to runtime.GOMAXPROCS(0); 1 or below means sequential.
	Parallelism int
	// Span attaches an execution-trace node to the plan being built:
	// query.BuildCursor labels it with the root operator, hangs one
	// child span per sub-operator under it and wraps every cursor so
	// pulls record tuples, batches, windows, gallops and wall time (the
	// engine additionally records per-shard subtrees and channel-stall
	// time). nil — the default — disables tracing completely: the plan
	// is built without wrappers or timing calls, so an untraced query
	// pays nothing (the ≤2% overhead pin of the obs layer).
	Span *obs.Span
}

// Workers resolves Parallelism to an effective worker count: 0 (unset)
// selects runtime.GOMAXPROCS(0) — scale with the hardware by default —
// and anything below one is sequential. tpset.Apply routes operations
// through the partition-parallel engine exactly when the resolved count
// is above one; tpset.Eval uses the same default.
func (o Options) Workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Op identifies a TP set operation.
type Op int

// The three TP set operations of Def. 3.
const (
	OpUnion Op = iota
	OpIntersect
	OpExcept
)

// String returns the paper's symbol for the operation.
func (op Op) String() string {
	switch op {
	case OpUnion:
		return "∪Tp"
	case OpIntersect:
		return "∩Tp"
	case OpExcept:
		return "−Tp"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Apply computes op(r, s) and materializes the result — the one
// two-relation driver: prepare (schema check, optional validation,
// clone + intern + sort + column projection), then drain the streaming
// OpCursor. It therefore shares its λ-filter/λ-function implementation
// with every cursor plan and cannot diverge from them.
func Apply(op Op, r, s *relation.Relation, opts Options) (*relation.Relation, error) {
	if op != OpUnion && op != OpIntersect && op != OpExcept {
		return nil, fmt.Errorf("core: unknown operation %v", op)
	}
	rr, ss, err := prepare(r, s, opts)
	if err != nil {
		return nil, err
	}
	return Materialize(newOpCursorSorted(op, rr, ss, OutSchemaOf(op, r.Schema, s.Schema), opts)), nil
}

func prepare(r, s *relation.Relation, opts Options) (rr, ss *relation.Relation, err error) {
	if !r.Schema.Compatible(s.Schema) {
		return nil, nil, fmt.Errorf("core: incompatible schemas %q (%d attrs) and %q (%d attrs)",
			r.Schema.Name, len(r.Schema.Attrs), s.Schema.Name, len(s.Schema.Attrs))
	}
	if opts.Validate {
		if err := r.ValidateDuplicateFree(); err != nil {
			return nil, nil, err
		}
		if err := s.ValidateDuplicateFree(); err != nil {
			return nil, nil, err
		}
	}
	if opts.AssumeSorted {
		return r, s, nil
	}
	rr, ss = r.Clone(), s.Clone()
	// Give the private clones one shared fact dictionary unless they
	// already have one (ingest-aligned inputs, intermediate results over
	// same-dict leaves): the sort below and the advancer sweep then run
	// on packed (FactID, Ts, Te) integer compares.
	if relation.SharedDict(rr, ss) == nil {
		relation.InternAll(rr, ss)
	}
	rr.Sort()
	ss.Sort()
	// Project the sorted clones into columns: the advancer's window
	// compares and run-skip gallops then run over packed int64 slices.
	rr.BuildCols()
	ss.BuildCols()
	return rr, ss, nil
}

// Intersect computes r ∩Tp s (Algorithm 2): at each time point, the facts
// with non-zero probability to be in r and in s, with lineage
// and(λr, λs). Windows are consumed until either input is exhausted — once
// one side can no longer contribute a valid tuple, no further window can
// pass the λ-filter λr ≠ null ∧ λs ≠ null.
func Intersect(r, s *relation.Relation, opts Options) (*relation.Relation, error) {
	return Apply(OpIntersect, r, s, opts)
}

// Union computes r ∪Tp s (Algorithm 3): at each time point, the facts with
// non-zero probability to be in r or in s, with lineage or(λr, λs). Every
// candidate window passes the filter (the advancer never emits a window
// without a valid tuple), so the loop drains both inputs.
func Union(r, s *relation.Relation, opts Options) (*relation.Relation, error) {
	return Apply(OpUnion, r, s, opts)
}

// Except computes r −Tp s (Algorithm 4): at each time point, the facts with
// non-zero probability to be in r and not in s, with lineage
// andNot(λr, λs) — which is λr alone when no s tuple is valid, and
// λr ∧ ¬λs otherwise (the probabilistic dimension keeps facts that s holds
// with probability < 1). Windows are consumed until the left input is
// exhausted.
func Except(r, s *relation.Relation, opts Options) (*relation.Relation, error) {
	return Apply(OpExcept, r, s, opts)
}

// OutSchemaOf composes the output schema of op over two input schemas:
// the concatenated name and the left input's attributes. Cursor plans use
// it to carry schemas without materialized relations.
func OutSchemaOf(op Op, ls, rs relation.Schema) relation.Schema {
	return relation.Schema{Name: ls.Name + op.String() + rs.Name, Attrs: ls.Attrs}
}

// Windows runs the advancer to completion and returns every candidate
// window, in order. It exists for tests (Example 3, Proposition 1) and for
// the ablation benchmark that decouples window production from filtering.
func Windows(r, s *relation.Relation) []Window {
	rr, ss := r.Clone(), s.Clone()
	rr.Sort()
	ss.Sort()
	a := NewAdvancer(rr, ss)
	var ws []Window
	for {
		w, ok := a.Next()
		if !ok {
			return ws
		}
		ws = append(ws, w)
	}
}
