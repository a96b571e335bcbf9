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
// their zero-copy and pooling behaviour, and skips keep forwarding (SkipTo,
// and a scan's skipBlock) so run-skipping lands through traced plans
// exactly as through untraced ones — the wrapper only counts the skips
// it forwards. Output is
// therefore bit-identical with tracing on or off; the golden trace tests
// pin this.

// Traced wraps c to record into sp; it returns c unchanged when sp is
// nil.
func Traced(c Cursor, sp *obs.Span) Cursor {
	if sp == nil {
		return c
	}
	tc := &tracedCursor{c: c, sp: sp}
	switch x := c.(type) {
	case *OpCursor:
		tc.adv = x.a
	case *ScanCursor:
		tc.scan = x
	}
	return tc
}

// tracedCursor is the recording wrapper around one plan node.
type tracedCursor struct {
	c    Cursor
	sp   *obs.Span
	adv  *Advancer   // non-nil when c is an OpCursor: publish sweep counters
	scan *ScanCursor // non-nil when c is a scan: the advancer source skips it through skipBlock
}

func (t *tracedCursor) Schema() relation.Schema { return t.c.Schema() }

// ReleaseCursor forwards plan teardown through the tracing wrapper.
func (t *tracedCursor) ReleaseCursor() { ReleaseCursor(t.c) }

// publishSweep pushes the advancer's window/gallop counters into the
// span after a pull (stores, not adds: the advancer owns the running
// totals).
func (t *tracedCursor) publishSweep() {
	if t.adv != nil {
		t.sp.SetWindows(t.adv.Windows())
		t.sp.SetGallops(t.adv.Gallops())
	}
}

func (t *tracedCursor) NextBatch(b *Batch) bool {
	start := time.Now()
	ok := t.c.NextBatch(b)
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
// gallops it forwards. A wrapped cursor without SkipTo (an operator
// cursor — its output is computed, so there is nothing to gallop over)
// makes this a no-op, which is semantically equivalent: callers
// re-filter tuples below the point after every skipTo, skipping only
// saves work, never changes output.
func (t *tracedCursor) SkipTo(fid int64, te interval.Time) {
	if sk, ok := t.c.(keySkipper); ok {
		t.sp.AddGallops(1)
		sk.SkipTo(fid, te)
	}
}

// skipBlock forwards the advancer source's skip to the wrapped scan,
// counting it like SkipTo; newBatchSource takes this face only when t
// wraps a scan.
func (t *tracedCursor) skipBlock(i int, fid int64, te interval.Time) int {
	t.sp.AddGallops(1)
	return t.scan.skipBlock(i, fid, te)
}
