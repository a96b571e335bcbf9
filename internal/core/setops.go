package core

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// Options controls the set-operation drivers.
type Options struct {
	// AssumeSorted skips the sort when the caller guarantees the inputs
	// are already in (fact, Ts) order. Inputs that also share one
	// dictionary and carry their fid columns (catalog relations do) are
	// then read in place; leaves that do not already share a dictionary
	// and a fid column are cloned and bound in O(n). Sorted or not, the
	// inputs must be duplicate-free (Def. 1: the tuples of one fact do
	// not overlap): ∩Tp and −Tp binary-search the end points of a fact's
	// run to skip what cannot match, and their result over inputs that
	// break the model is unspecified. Validate checks it.
	AssumeSorted bool
	// LazyProb leaves the probability of output tuples unvaluated (zero).
	// By default probabilities are computed eagerly, which is linear per
	// tuple for the 1OF lineage produced by non-repeating queries.
	LazyProb bool
	// Validate additionally checks that both inputs are duplicate-free
	// before running (O(n log n)) and fails the operation otherwise;
	// intended for data of unknown provenance (CSV ingest and catalog
	// admission have checked theirs).
	Validate bool
	// Parallelism is the worker budget of tpset.Apply (and so of
	// tpset.Union, Intersect and Except), which runs the operation on
	// internal/engine with Workers() workers. 0 — the zero value —
	// resolves to runtime.GOMAXPROCS(0); 1 or below means sequential.
	// Apply in this package is the sequential two-relation driver and
	// does not read it.
	Parallelism int
	// Span attaches an execution-trace node to the plan being built:
	// query.BuildCursor labels it with the root operator, hangs one
	// child span per sub-operator under it and builds every node with
	// its span, so each node's pulls record tuples, batches, windows,
	// gallops and wall time (the engine additionally records per-shard
	// subtrees and channel-stall time). NewOpCursor records into it
	// directly. nil — the default — disables tracing: every node
	// carries a nil span and pays one nil check per pull and per skip,
	// with no timing calls.
	Span *obs.Span
}

// Workers resolves Parallelism to an effective worker count: 0 (unset)
// selects runtime.GOMAXPROCS(0) — scale with the hardware by default —
// and anything below one is sequential. tpset.Apply hands the engine
// this budget; tpset.Eval uses the same default.
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

// The three TP set operations of Def. 3. At each time point, the
// result holds the facts with non-zero probability to be:
const (
	// in r or in s, with lineage or(λr, λs) (Algorithm 3). Every
	// candidate window passes the λ-filter, so the sweep drains both
	// inputs.
	OpUnion Op = iota
	// in r and in s, with lineage and(λr, λs) (Algorithm 2). The sweep
	// stops when either input is exhausted: no later window can pass
	// the filter λr ≠ null ∧ λs ≠ null.
	OpIntersect
	// in r and not in s, with lineage andNot(λr, λs): λr alone where no
	// s tuple is valid, λr ∧ ¬λs otherwise, which keeps facts that s
	// holds with probability < 1 (Algorithm 4). The sweep stops when r
	// is exhausted.
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
// two-relation driver: PrepareLeaves, then a drain of the streaming
// OpCursor (which checks the operation and the schemas) over two scans.
// It therefore shares its λ-filter/λ-function implementation with every
// cursor plan and cannot diverge from them.
func Apply(op Op, r, s *relation.Relation, opts Options) (*relation.Relation, error) {
	leaves, err := PrepareLeaves([]*relation.Relation{r, s}, nil, opts, 1)
	if err != nil {
		return nil, err
	}
	c, err := NewOpCursor(op, r.Schema.Name+op.String()+s.Schema.Name, NewScanCursor(leaves[0], nil), NewScanCursor(leaves[1], nil), opts)
	if err != nil {
		return nil, err
	}
	return Materialize(c), nil
}

// PrepareLeaves is where the block invariant is established: it returns,
// in order, the relations a plan's scans may read — sorted by
// (fid, Ts, Te), bound to one shared fact dictionary and carrying their
// fid columns — so every block of the plan is bound and the whole tree
// sweeps, gallops and shards on packed integer ids. It is the one
// prepare routine of the module: Apply calls it for its two inputs, the
// engine once per plan before it cuts the leaves into shards.
//
// Validate checks every leaf for duplicate-freeness first. The inputs
// are never written, rebound or sorted in place, frozen or not; a leaf
// that already is what a scan needs is read where it stands, anything
// else gets a private copy. Leaves that qualify under AssumeSorted
// (catalog relations: admission bound them) are returned as they are.
// Leaves that share a dictionary come back as themselves when their
// rows are in (fid, Ts, Te) order and as sorted copies, one pass each
// (relation.SortedCopy), when not; leaves that do not share one are
// cloned, bound to one dictionary and — unless AssumeSorted vouches for
// the order, which rebinding preserves: dictionaries are
// order-preserving — sorted where they stand. The per-leaf work fans
// out over up to workers goroutines. A caller that holds the plan's
// cursor must therefore leave the inputs alone until it is drained, as
// the catalog does.
//
// keep[i], when keep has it and it is not nil, is a filter the plan
// applies above every scan of leaf i anyway (the selections over a leaf
// read only through them): a leaf that is copied is copied with only the
// rows keep passes (relation.Where), and that copy is the one it binds
// and sorts in place. A leaf read where it stands is read whole.
func PrepareLeaves(leaves []*relation.Relation, keep []func(*relation.Tuple) bool, opts Options, workers int) ([]*relation.Relation, error) {
	if opts.Validate {
		for _, r := range leaves {
			if err := r.ValidateDuplicateFree(); err != nil {
				return nil, err
			}
		}
	}
	shared := relation.SharedDict(leaves...) != nil
	if shared && opts.AssumeSorted {
		return leaves, nil
	}
	filtered := func(i int) bool { return i < len(keep) && keep[i] != nil }
	own := func(i int) *relation.Relation {
		if filtered(i) {
			return relation.Where(leaves[i], keep[i])
		}
		return leaves[i].Clone()
	}
	private := make([]*relation.Relation, len(leaves))
	if !shared {
		for i := range leaves {
			private[i] = own(i)
		}
		relation.InternAll(private...)
	}
	fanOut(len(leaves), workers, func(i int) {
		switch {
		case shared && leaves[i].InCanonicalOrder():
			private[i] = leaves[i]
		case shared && filtered(i):
			private[i] = own(i)
			private[i].Sort()
		case shared:
			private[i] = leaves[i].SortedCopy()
		case !opts.AssumeSorted:
			private[i].Sort()
		}
	})
	return private, nil
}

// fanOut runs f(0) … f(n-1), one goroutine each, at most workers of them
// running, and returns when all have finished. A panic in f is re-raised
// on the caller's goroutine then, instead of ending the process.
func fanOut(n, workers int, f func(i int)) {
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	var relay PanicRelay
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			defer relay.Capture()
			f(i)
		}()
	}
	wg.Wait()
	relay.Reraise()
}

// Windows runs the advancer to completion and returns every candidate
// window, in order. It exists for tests (Example 3, Proposition 1) and for
// the ablation benchmark that decouples window production from filtering.
func Windows(r, s *relation.Relation) []Window {
	leaves, _ := PrepareLeaves([]*relation.Relation{r, s}, nil, Options{}, 1) // no Validate: cannot fail
	a := NewAdvancer(leaves[0], leaves[1])
	var ws []Window
	for {
		w, ok := a.Next()
		if !ok {
			return ws
		}
		ws = append(ws, w)
	}
}
