package core

import (
	"time"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// Execution tracing. Traced wraps a cursor so that every pull records
// into an obs.Span: tuples and batches emitted and inclusive wall time,
// plus — when the wrapped cursor is an OpCursor — the advancer's
// windows-popped and gallops-taken counters. Wrappers exist only when a
// trace is requested (plan builders call Traced with the plan's span;
// with a nil span the cursor is returned unchanged), so the untraced
// plan has no wrapper in the cursor tree, no time.Now calls and no
// atomic traffic.
//
// Wrapping is transparent to the execution machinery: block pulls keep
// their zero-copy and pooling behaviour, and SkipTo keeps forwarding so
// run-skipping gallops through traced plans exactly as through untraced
// ones — the wrapper only counts the skips it forwards. Output is
// therefore bit-identical with tracing on or off; the golden trace tests
// pin this.

// Traced wraps c to record into sp; it returns c unchanged when sp is
// nil.
func Traced(c Cursor, sp *obs.Span) Cursor {
	if sp == nil {
		return c
	}
	tc := &tracedBatchCursor{bc: AsBatchCursor(c), sp: sp}
	if oc, ok := c.(*OpCursor); ok {
		tc.adv = oc.a
	}
	return tc
}

// tracedBatchCursor is the recording wrapper around one plan node.
type tracedBatchCursor struct {
	bc  BatchCursor
	sp  *obs.Span
	adv *Advancer // non-nil when bc is an OpCursor: publish sweep counters
}

func (t *tracedBatchCursor) Schema() relation.Schema { return t.bc.Schema() }

// ReleaseCursor forwards plan teardown through the tracing wrapper.
func (t *tracedBatchCursor) ReleaseCursor() { ReleaseCursor(t.bc) }

// publishSweep pushes the advancer's window/gallop counters into the
// span after a pull (stores, not adds: the advancer owns the running
// totals).
func (t *tracedBatchCursor) publishSweep() {
	if t.adv != nil {
		t.sp.SetWindows(t.adv.Windows())
		t.sp.SetGallops(t.adv.Gallops())
	}
}

func (t *tracedBatchCursor) Next() (relation.Tuple, bool) {
	start := time.Now()
	tu, ok := t.bc.Next()
	t.sp.AddWall(time.Since(start))
	if ok {
		t.sp.AddTuples(1)
	}
	t.publishSweep()
	return tu, ok
}

func (t *tracedBatchCursor) NextBatch(b *Batch) bool {
	start := time.Now()
	ok := t.bc.NextBatch(b)
	t.sp.AddWall(time.Since(start))
	b.CheckBound("core.Traced.NextBatch")
	if ok {
		t.sp.AddTuples(int64(len(b.Tuples)))
		t.sp.AddBatches(1)
	}
	t.publishSweep()
	return ok
}

// SkipTo forwards run-skipping — past facts or past a stretch of one
// fact's time — to the wrapped cursor when it supports it, counting the
// gallop either way. A wrapped cursor without SkipTo (an operator
// cursor — its output is computed, so there is nothing to gallop over)
// makes this a no-op, which is semantically equivalent: callers
// re-filter tuples below the point after every skipTo, skipping only
// saves work, never changes output.
func (t *tracedBatchCursor) SkipTo(fid int64, te interval.Time) {
	if sk, ok := t.bc.(keySkipper); ok {
		t.sp.AddGallops(1)
		sk.SkipTo(fid, te)
	}
}
