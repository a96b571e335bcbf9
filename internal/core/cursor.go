package core

import (
	"fmt"

	"github.com/tpset/tpset/internal/invariant"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Cursor is a pull-based stream of TP tuples in canonical (fact, Ts, Te)
// order — the streaming form of a sorted relation. Next returns the next
// tuple, or ok=false when the stream is drained; after that it keeps
// returning ok=false. Cursors are single-use and not safe for concurrent
// calls to Next.
//
// The ordering invariant is the contract that makes cursors compose: the
// window advancer requires (fact, Ts)-sorted inputs, and every operator
// cursor emits its output in exactly that order, so cursors stack into
// whole query trees that evaluate in O(tree depth) additional memory —
// one lookahead buffer and one valid tuple per tree edge, no materialized
// intermediate relations (the O(1)-space-per-operator property of §IV).
type Cursor interface {
	// Schema describes the stream's conventional attributes.
	Schema() relation.Schema
	// Next returns the next tuple in canonical order.
	Next() (relation.Tuple, bool)
}

// CursorReleaser is the optional teardown face of a cursor: operators
// that buffer pooled batches across pulls (batch sources, filter
// buffers) implement it so an abandoned plan can hand every block back
// to the pool. Wrappers forward the release to their children.
type CursorReleaser interface {
	// ReleaseCursor returns pooled blocks buffered anywhere in the
	// plan subtree. Idempotent, and a no-op on fully drained plans
	// (draining already releases as it goes); the plan must not be
	// pulled again afterwards.
	ReleaseCursor()
}

// ReleaseCursor tears down a partially drained cursor plan via its
// CursorReleaser face; cursors without buffered pooled state (scans,
// pure tuple pipelines) need none and make this a no-op.
func ReleaseCursor(c Cursor) {
	if r, ok := c.(CursorReleaser); ok {
		r.ReleaseCursor()
	}
}

// ScanCursor streams a materialized relation that must already be in
// canonical (fact, Ts) order — the leaf of a cursor plan. Tuples are
// returned by value, so consumers never mutate the underlying relation:
// a ScanCursor may safely stream a relation shared with concurrent
// readers.
type ScanCursor struct {
	r   *relation.Relation
	fid []int64 // r's fid column, aliased into every block
	i   int
}

// NewScanCursor returns a scan over r, which must be sorted (as for
// NewAdvancer; relation.Relation.Sort establishes it) and, unless it is
// empty, be bound (Relation.FidCol): the scan hands out bound blocks
// and has nothing else to bind them with. PrepareLeaves
// produces such leaves from any input; a relation without the column is
// a plan-construction bug and panics here rather than mid-sweep.
func NewScanCursor(r *relation.Relation) *ScanCursor {
	fid := r.FidCol()
	if fid == nil && r.Len() > 0 {
		panic(fmt.Sprintf("core: scan over relation %q (%d tuples) without a fid column", r.Schema.Name, r.Len()))
	}
	if invariant.Enabled {
		invariant.CheckSorted(r, "core.NewScanCursor")
		invariant.CheckColsMirror(r, "core.NewScanCursor")
	}
	return &ScanCursor{r: r, fid: fid}
}

// Schema returns the scanned relation's schema.
func (c *ScanCursor) Schema() relation.Schema { return c.r.Schema }

// Next returns the next tuple of the relation.
func (c *ScanCursor) Next() (relation.Tuple, bool) {
	if c.i >= len(c.r.Tuples) {
		return relation.Tuple{}, false
	}
	t := c.r.Tuples[c.i]
	c.i++
	return t, true
}

// OpCursor evaluates one TP set operation as a stream: it runs the LAWA
// advancer directly over its children's tuple streams, applies the
// operation's λ-filter to each candidate window and finalizes output
// lineage with its Table I concatenation function. It is the Fig. 5
// pipeline in streaming form, and the only implementation of it: Apply
// drains one OpCursor over two scans, cursor plans stack them.
type OpCursor struct {
	op     Op
	a      *Advancer
	schema relation.Schema
	opts   Options
}

// NewOpCursor streams op(left, right). The children must satisfy the
// Cursor ordering invariant; their schemas must be union-compatible.
func NewOpCursor(op Op, left, right Cursor, opts Options) (*OpCursor, error) {
	if op != OpUnion && op != OpIntersect && op != OpExcept {
		return nil, fmt.Errorf("core: unknown operation %v", op)
	}
	ls, rs := left.Schema(), right.Schema()
	if !ls.Compatible(rs) {
		return nil, fmt.Errorf("core: incompatible schemas %q (%d attrs) and %q (%d attrs)",
			ls.Name, len(ls.Attrs), rs.Name, len(rs.Attrs))
	}
	a := NewStreamAdvancer(left, right)
	a.enableSkip(op)
	return &OpCursor{op: op, a: a, schema: OutSchemaOf(op, ls, rs), opts: opts}, nil
}

// Schema returns the output schema of the operation.
func (c *OpCursor) Schema() relation.Schema { return c.schema }

// ReleaseCursor tears down a partially drained operation: the advancer's
// sources hand their buffered pooled blocks back and forward the release
// down the child plans.
func (c *OpCursor) ReleaseCursor() { c.a.release() }

// Next produces the next output tuple — the tuple-at-a-time face of the
// window loop NextBatch fills blocks with.
func (c *OpCursor) Next() (relation.Tuple, bool) {
	var t relation.Tuple
	var fid int64
	ok := c.emit(&t, &fid)
	return t, ok
}

// emit writes the next output row into *t and its fact id into *fid:
// windows are drawn from the advancer until one passes the operation's
// λ-filter, then finalized with the operation's lineage-concatenation
// function. The per-operation termination conditions of Algorithms 2–4
// apply — intersection stops once either input is exhausted, difference
// once the left input is. Every field of the slot is overwritten: it may
// be pooled storage holding an earlier row.
func (c *OpCursor) emit(t *relation.Tuple, fid *int64) bool {
	for {
		switch c.op {
		case OpIntersect:
			if c.a.RExhausted() || c.a.SExhausted() {
				return false
			}
		case OpExcept:
			if c.a.RExhausted() {
				return false
			}
		}
		w, ok := c.a.Next()
		if !ok {
			return false
		}
		var lam *lineage.Expr
		switch c.op { // λ-filter, then λ-function (Table I)
		case OpIntersect:
			if w.LamR != nil && w.LamS != nil {
				lam = lineage.And(w.LamR, w.LamS)
			}
		case OpUnion:
			if w.LamR != nil || w.LamS != nil {
				lam = lineage.Or(w.LamR, w.LamS)
			}
		case OpExcept:
			if w.LamR != nil {
				lam = lineage.AndNot(w.LamR, w.LamS)
			}
		}
		if lam == nil {
			continue
		}
		*t = relation.Tuple{Fact: w.Fact, Lineage: lam, T: w.Interval()}
		if !c.opts.LazyProb {
			t.Prob = lam.Prob()
		}
		*fid = w.Fid
		return true
	}
}

// Materialize drains a cursor into a relation — the single point where a
// cursor plan gives up its O(tree depth) memory bound. Every block of a
// plan is bound to the plan's one dictionary, so the materialized
// relation comes out bound to it with the ids the blocks carried (an
// empty result has no block to take a dictionary from and stays
// unbound, which is vacuously fine). The result's tuple array and fid
// column are each allocated once, at their exact length; see
// MaterializeLimit for how.
func Materialize(c Cursor) *relation.Relation {
	out, _ := MaterializeLimit(c, 0)
	return out
}

// MaterializeLimit is Materialize with a result-size budget: the drain
// stops as soon as the output would exceed max tuples and reports
// ok=false. A budget violation is a property of the query, not a
// truncation point — the partial relation is returned only so callers
// can report how far the drain got, and must not be served or cached as
// the query's answer. max <= 0 means no budget.
//
// The drain never grows an array. It pulls pooled blocks and keeps them,
// counting rows, then allocates the tuple array and the fid column once
// at exactly that count, copies every kept block's rows and ids into
// place and hands the blocks back: two allocations and one copy per
// result, where appending block by block reallocates the array dozens
// of times (1.25× a step) and clears and copies about five times its
// final size on the way. Every cursor fills a block to Cap() until its
// stream ends, so the kept blocks hold the result's rows once over (a
// kept view of a leaf pins its unused pooled storage instead): the drain
// pins at most twice the result plus one block. It only reads the rows —
// a scan's block is the leaf itself.
func MaterializeLimit(c Cursor, max int) (*relation.Relation, bool) {
	bc := AsBatchCursor(c)
	var kept []*Batch
	// Deferred, not inline: a pull may panic (the engine re-raises a shard
	// producer's panic on the consumer), and the pool must balance then too.
	defer func() {
		for _, b := range kept {
			PutBatch(b)
		}
	}()
	n, within := 0, true
	for within {
		b := GetBatch()
		kept = append(kept, b)
		if !bc.NextBatch(b) {
			break
		}
		n += len(b.Tuples)
		within = max <= 0 || n <= max
	}
	out := relation.New(c.Schema())
	if n > 0 {
		out.Tuples = make([]relation.Tuple, n)
		fid := make([]int64, n)
		at := 0
		for _, b := range kept {
			copy(fid[at:], b.Fid)
			at += copy(out.Tuples[at:], b.Tuples)
		}
		if !within {
			return out, false // a partial result is for reporting, not for running plans over: unbound
		}
		if err := out.SetBinding(kept[0].Dict, fid, nil); err != nil {
			panic(err) // every block of a plan is bound: a bug, not a runtime condition
		}
	}
	return out, within
}
