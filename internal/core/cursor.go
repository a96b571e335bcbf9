package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/invariant"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// Cursor is a pull-based stream of TP tuples in canonical (fact, Ts, Te)
// order — the streaming form of a sorted relation — and the one pull
// protocol of the module: a stream crosses an operator boundary as bound
// blocks and in no other form. NextBatch fills b (after resetting it)
// with up to b.Cap() tuples and reports whether it produced any; after
// the first false it keeps returning false. Cursors are single-use and
// not safe for concurrent pulls.
//
// The ordering invariant is the contract that makes cursors compose: the
// window advancer requires (fact, Ts)-sorted inputs, and every operator
// cursor emits its output in exactly that order, so cursors stack into
// whole query trees that evaluate in O(tree depth) additional memory —
// one lookahead block and one valid tuple per tree edge, no materialized
// intermediate relations (the O(1)-space-per-operator property of §IV).
//
// Every block handed over is bound (Batch: Dict != nil, one Fid entry
// per row). The block is the consumer's: the cursor keeps no reference
// to b after NextBatch returns, so a consumer may retain a filled block —
// pulling the next one into another — until it PutBatches it
// (Materialize does). The rows stay read-only all the while: a scan
// fills b by pointing it at the leaf.
type Cursor interface {
	// Schema describes the stream's conventional attributes.
	Schema() relation.Schema
	// NextBatch fills b with the next block in canonical order.
	NextBatch(b *Batch) bool
}

// CursorReleaser is the optional teardown face of a cursor: operators
// that buffer pooled batches across pulls (batch sources, filter
// buffers) implement it so an abandoned plan can hand every block back
// to the pool. Operators and selections forward the release to their
// children.
type CursorReleaser interface {
	// ReleaseCursor returns pooled blocks buffered anywhere in the
	// plan subtree. Idempotent, and a no-op on fully drained plans
	// (draining already releases as it goes); the plan must not be
	// pulled again afterwards.
	ReleaseCursor()
}

// ReleaseCursor tears down a partially drained cursor plan via its
// CursorReleaser face; cursors without buffered pooled state (scans)
// need none and make this a no-op.
func ReleaseCursor(c Cursor) {
	if r, ok := c.(CursorReleaser); ok {
		r.ReleaseCursor()
	}
}

// keySkipper is implemented by cursors that can advance past a run of
// tuples in sub-linear time: SkipTo discards every upcoming tuple below
// the point (fid, te) — its packed fact id is below fid, or equals fid
// and its interval ends at or before te (relation.MinTime: the facts
// below fid and nothing else). Scans answer from their relation's
// fact-run index (relation.Runs.Seek); filters gallop their buffered
// block (relation.SkipTo) and forward to their input. The search relies
// on end points ascending within a fact, i.e. on the stream being
// duplicate-free (Def. 1) as well as sorted. The advancer's run-skipping
// uses it through batchSource; operator cursors deliberately do not
// implement it — their output is computed, so "skipping" it would still
// compute it.
type keySkipper interface {
	SkipTo(fid int64, te interval.Time)
}

// ScanCursor streams a materialized relation that must already be in
// canonical (fact, Ts) order — the leaf of a cursor plan. Its blocks
// alias the relation and consumers only read them, so a ScanCursor may
// safely stream a relation shared with concurrent readers.
type ScanCursor struct {
	r    *relation.Relation
	fid  []int64        // r's fid column, aliased into every block
	runs *relation.Runs // r's fact-run index: answers every skip
	sp   *obs.Span      // the scan's trace node, nil when untraced
	i    int            // the next row to hand out
	last int            // the first row of the block handed out last
	run  int            // the run the last skip landed in, where the next one starts (Runs.Seek's hint)
}

// NewScanCursor returns a scan over r that records its pulls and skips
// into sp (nil: untraced). r must be sorted (as for NewAdvancer;
// relation.Relation.Sort establishes it) and, unless it is empty, be
// bound (Relation.FidCol): the scan hands out bound blocks and has
// nothing else to bind them with. PrepareLeaves
// produces such leaves from any input; a relation without the column is
// a plan-construction bug and panics here rather than mid-sweep. The
// first scan of a relation builds its fact-run index (Relation.Runs);
// every later one reads it.
func NewScanCursor(r *relation.Relation, sp *obs.Span) *ScanCursor {
	fid := r.FidCol()
	if fid == nil && r.Len() > 0 {
		panic(fmt.Sprintf("core: scan over relation %q (%d tuples) without a fid column", r.Schema.Name, r.Len()))
	}
	if invariant.Enabled {
		invariant.CheckSorted(r, "core.NewScanCursor")
		invariant.CheckColsMirror(r, "core.NewScanCursor")
	}
	return &ScanCursor{r: r, fid: fid, runs: r.Runs(), sp: sp}
}

// Schema returns the scanned relation's schema.
func (c *ScanCursor) Schema() relation.Schema { return c.r.Schema }

// NextBatch fills b with the next sub-window of the scanned relation —
// zero copy: b.Tuples aliases the relation's own storage and b.Fid its
// fid column, so a scan batch costs three slice-header writes
// regardless of size. Consumers must treat the rows as read-only (the
// relation may be shared, e.g. a catalog relation under AssumeSorted).
func (c *ScanCursor) NextBatch(b *Batch) bool {
	var start time.Time
	if c.sp != nil {
		start = time.Now()
	}
	n := min(len(c.r.Tuples)-c.i, b.Cap())
	if n > 0 {
		i, j := c.i, c.i+n
		b.Tuples, b.Fid, b.Dict = c.r.Tuples[i:j], c.fid[i:j], c.r.Dict()
		c.i, c.last = j, i
		b.CheckBound("core.ScanCursor.NextBatch")
	} else {
		b.Reset()
	}
	c.sp.Pull(start, n)
	return n > 0
}

// SkipTo advances the scan past every tuple below the point (fid, te):
// a fact id below fid, or fid itself with an interval that ends at or
// before te. It is answered from the relation's fact-run index: a skip
// to a later fact costs index steps and no row read, a skip in time at
// most two row reads plus a search of end points when it lands inside a
// run — instead of the O(m) pops of the tuple-at-a-time sweep. The
// scanned relation must be duplicate-free (see relation.SkipTo).
func (c *ScanCursor) SkipTo(fid int64, te interval.Time) {
	c.i = c.seek(c.i, fid, te)
}

// skipBlock is SkipTo for the advancer source that holds the block
// handed out last and has read it up to row i: the skip starts there,
// and the landing comes back counted in that block's rows. Below the
// block's length it lies inside the block, where the source stays and
// the scan does not move; otherwise the scan is positioned at it, so the
// next block starts with the landing row.
func (c *ScanCursor) skipBlock(i int, fid int64, te interval.Time) int {
	at := c.seek(c.last+i, fid, te)
	c.i = max(c.i, at)
	return at - c.last
}

// seek returns the first row at or after from that lies at or above
// (fid, te), keeping the run hint: every skip of a scan starts at or
// after the last one's landing, so the next fact's run is one step on.
// Each skip of the scan lands here once, where its trace counts it.
func (c *ScanCursor) seek(from int, fid int64, te interval.Time) int {
	c.sp.AddGallops(1)
	at, run := c.runs.Seek(c.r.Tuples, from, c.run, fid, te)
	c.run = run
	return at
}

// OpCursor evaluates one TP set operation as a stream: it runs the LAWA
// advancer directly over its children's streams, applies the
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

// NewOpCursor streams op(left, right) as a relation called name (the
// output schema takes the left input's attributes). The children must
// satisfy the Cursor ordering invariant; their schemas must be
// union-compatible. A plan names its root only (query.ResultName): an
// operator feeding another is read for its rows, never for its name.
// opts.Span, when set, is the operator's own trace node; its children
// record into theirs.
func NewOpCursor(op Op, name string, left, right Cursor, opts Options) (*OpCursor, error) {
	if op != OpUnion && op != OpIntersect && op != OpExcept {
		return nil, fmt.Errorf("core: unknown operation %v", op)
	}
	ls, rs := left.Schema(), right.Schema()
	if !ls.Compatible(rs) {
		return nil, fmt.Errorf("core: incompatible schemas: %d attributes (%s) and %d (%s)",
			len(ls.Attrs), strings.Join(ls.Attrs, ", "), len(rs.Attrs), strings.Join(rs.Attrs, ", "))
	}
	a := NewStreamAdvancer(left, right)
	a.enableSkip(op)
	return &OpCursor{op: op, a: a, schema: relation.Schema{Name: name, Attrs: ls.Attrs}, opts: opts}, nil
}

// Schema returns the output schema of the operation.
func (c *OpCursor) Schema() relation.Schema { return c.schema }

// ReleaseCursor tears down a partially drained operation: the advancer's
// sources hand their buffered pooled blocks back and forward the release
// down the child plans.
func (c *OpCursor) ReleaseCursor() { c.a.release() }

// NextBatch drains windows through the operation's λ-filter straight
// into the block's own slots until it is full or the operation
// terminates: every output row is written once, where it will be read,
// with the window's id beside it, and the block comes out bound to the
// inputs' dictionary. A traced operator (opts.Span) then publishes its
// advancer's window and gallop counts with the pull.
func (c *OpCursor) NextBatch(b *Batch) bool {
	sp := c.opts.Span
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	b.Reset()
	rows, fid := b.Tuples[:b.Cap()], b.Fid[:b.Cap()]
	n := 0
	for n < len(rows) && c.emit(&rows[n], &fid[n]) {
		n++
	}
	b.Tuples, b.Fid, b.Dict = rows[:n], fid[:n], c.a.dict
	b.CheckBound("core.OpCursor.NextBatch")
	if sp != nil {
		sp.SetWindows(c.a.windows)
		sp.SetGallops(c.a.gallops)
		sp.Pull(start, n)
	}
	return n > 0
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
// unbound, which is vacuously fine).
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
func Materialize(c Cursor) *relation.Relation {
	var kept []*Batch
	// Deferred, not inline: a pull may panic (the engine re-raises a shard
	// producer's panic on the consumer), and the pool must balance then too.
	defer func() {
		for _, b := range kept {
			PutBatch(b)
		}
	}()
	n := 0
	for {
		b := GetBatch()
		kept = append(kept, b)
		if !c.NextBatch(b) {
			break
		}
		n += len(b.Tuples)
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
		if err := out.SetBinding(kept[0].Dict, fid); err != nil {
			panic(err) // every block of a plan is bound: a bug, not a runtime condition
		}
	}
	return out
}
