package core

import (
	"fmt"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/invariant"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Window is a lineage-aware temporal window with schema
// (F, winTs, winTe, λr, λs): a candidate output interval [WinTs, WinTe)
// for fact Fact, annotated with the lineage of the tuple of the left input
// relation valid throughout the window (LamR, nil when none) and likewise
// for the right input relation (LamS).
//
// Because the two lineages are recorded separately, a single window stream
// serves all three set operations: each operation filters windows and
// combines LamR/LamS with its own lineage-concatenation function.
//
// Key is the comparison key of Fact, carried from the input tuple that
// opened the fact group: output tuples built from the window inherit the
// inputs' interning through it, which keeps a whole stacked query tree on
// the integer-compare path.
type Window struct {
	Fact  relation.Fact
	Key   relation.FactKey
	WinTs interval.Time
	WinTe interval.Time
	LamR  *lineage.Expr
	LamS  *lineage.Expr
}

// Interval returns the window's candidate output interval.
func (w Window) Interval() interval.Interval {
	return interval.Interval{Ts: w.WinTs, Te: w.WinTe}
}

// String renders the window like ('milk',[1,2), c1, null).
func (w Window) String() string {
	return fmt.Sprintf("(%s,[%d,%d), %s, %s)", w.Fact, w.WinTs, w.WinTe, w.LamR, w.LamS)
}

// tupleSource is the advancer's view of one input: a one-tuple-lookahead
// stream in (fact, Ts) order. Two implementations exist — a slice over
// a sorted relation (Apply's materialized input) and a block pull from
// a BatchCursor (the streaming path). peek returns the next unconsumed
// tuple (nil when drained) and is stable until pop; pop
// consumes it. The pointer peek returns may be invalidated by pop, so
// callers that need the tuple beyond the next pop must copy it. The
// peeked tuple may alias storage shared with concurrent readers, so
// callers must not mutate it — keys are read through peekKey/FactKeyRO.
//
// peekKey returns the comparison key of the peeked tuple and is only
// valid when peek() is non-nil. Columnar sources derive it from the
// packed fid column (one int64 load plus an O(1) dictionary index —
// never a struct walk or a key-string rebuild); the others fall back to
// FactKeyRO. The advancer reads every key through it, so the window
// compares of Algorithm 1 run branch-light on the SoA path and
// unchanged on the fallback.
//
// skipTo advances the source so that peek returns the first tuple whose
// fact key is >= k; it is the run-skipping entry point and only called
// when every tuple below k is known to be filtered out by the operation.
type tupleSource interface {
	peek() *relation.Tuple
	peekKey() relation.FactKey
	pop()
	skipTo(k relation.FactKey)
	// release returns buffered pooled blocks and forwards the teardown
	// to the child plan — the source-level leg of Cursor teardown
	// (CursorReleaser). No-op on slice-backed sources.
	release()
}

// sliceSource streams a sorted tuple slice, with an optional columnar
// fast path: when the backing relation carries a columnar projection,
// fid/dict alias its id column and keys and gallops run on packed
// integers.
type sliceSource struct {
	ts   []relation.Tuple
	fid  []int64
	dict *keys.Dict
	i    int
}

// newSliceSource builds a source over r's tuples, picking up the
// columnar projection when one is valid.
func newSliceSource(r *relation.Relation) *sliceSource {
	s := &sliceSource{ts: r.Tuples}
	if c := r.Cols(); c != nil {
		s.fid, s.dict = c.Fid, r.Dict()
	}
	return s
}

func (s *sliceSource) peek() *relation.Tuple {
	if s.i < len(s.ts) {
		return &s.ts[s.i]
	}
	return nil
}

func (s *sliceSource) peekKey() relation.FactKey {
	if s.dict != nil {
		return relation.KeyIn(s.dict, s.fid[s.i])
	}
	return s.ts[s.i].FactKeyRO()
}

func (s *sliceSource) pop() { s.i++ }

// skipTo gallops over the fid column when the target is interned
// against the source's dictionary, and over the tuple slice otherwise
// (shared with ScanCursor.SkipTo).
func (s *sliceSource) skipTo(k relation.FactKey) {
	if s.dict != nil {
		if id, ok := k.IDIn(s.dict); ok {
			s.i += relation.SkipToFid(s.fid[s.i:], id)
			return
		}
	}
	s.i += relation.SkipToKey(s.ts[s.i:], k)
}

// release is a no-op: slice sources alias relation storage.
func (s *sliceSource) release() {}

// batchSource streams a BatchCursor through a pooled block buffer: one
// interface call per ~BatchSize tuples instead of one per tuple. The
// peeked pointers index straight into the batch, which may alias the
// scanned relation (zero copy) — hence the read-only contract of peek.
type batchSource struct {
	c    BatchCursor
	b    *Batch
	i    int
	done bool
}

func newBatchSource(c BatchCursor) *batchSource {
	return &batchSource{c: c, b: GetBatch()}
}

func (s *batchSource) peek() *relation.Tuple {
	for {
		if s.i < len(s.b.Tuples) {
			return &s.b.Tuples[s.i]
		}
		if s.done {
			return nil
		}
		if !s.c.NextBatch(s.b) {
			s.done = true
			PutBatch(s.b)
			s.b = &Batch{}
			return nil
		}
		s.i = 0
	}
}

func (s *batchSource) peekKey() relation.FactKey {
	if s.b.Dict != nil {
		return relation.KeyIn(s.b.Dict, s.b.Fid[s.i])
	}
	return s.b.Tuples[s.i].FactKeyRO()
}

func (s *batchSource) pop() { s.i++ }

// release hands the buffered block back to the pool (the drain paths
// swap in an empty placeholder after their own PutBatch, so a release
// after exhaustion puts only the zero batch, which the pool drops) and
// forwards the teardown to the child plan.
func (s *batchSource) release() {
	if !s.done {
		s.done = true
		PutBatch(s.b)
		s.b = &Batch{}
	}
	ReleaseCursor(s.c)
}

// skipTo discards the remainder of the current batch by binary search —
// a packed-int64 gallop when the batch carries columns — then, when the
// target is beyond it, delegates to the child's galloping SkipTo
// (scans, filters) or discards whole batches when the child's output is
// computed (operator cursors): a batch discard is one comparison
// against the batch tail, so even the fallback advances in
// O(n/BatchSize) comparisons instead of O(n) pops.
func (s *batchSource) skipTo(k relation.FactKey) {
	for {
		skipped := false
		if s.b.Dict != nil {
			if id, ok := k.IDIn(s.b.Dict); ok {
				s.i += relation.SkipToFid(s.b.Fid[s.i:], id)
				skipped = true
			}
		}
		if !skipped {
			s.i += relation.SkipToKey(s.b.Tuples[s.i:], k)
		}
		if s.i < len(s.b.Tuples) || s.done {
			return
		}
		if sk, ok := s.c.(keySkipper); ok {
			sk.SkipTo(k)
		}
		if !s.c.NextBatch(s.b) {
			s.done = true
			PutBatch(s.b)
			s.b = &Batch{}
			return
		}
		s.i = 0
	}
}

// Advancer is the lineage-aware window advancer. It carries the status
// structure of Algorithm 1: the boundary of the previous window, the fact
// currently being processed, the currently valid tuple of each input
// relation, and one-tuple-lookahead cursors over the two (fact, Ts)-sorted
// inputs.
//
// Each call to Next produces the next candidate window in (fact, time)
// order, or ok=false when both relations are exhausted. The advancer never
// produces a window during which no input tuple is valid, and every window
// boundary coincides with a start or end point of an input tuple, so the
// number of windows is bounded by Proposition 1 (≤ nr + ns − fd candidate
// windows for nr, ns start/end points and fd distinct facts).
//
// Beyond the two lookahead buffers and the two currently valid tuples, the
// advancer holds no per-input state — this is the O(1)-additional-space
// property of §IV that the streaming execution layer (NewStreamAdvancer,
// OpCursor) relies on.
type Advancer struct {
	r, s tupleSource

	prevWinTe interval.Time
	currKey   relation.FactKey
	currFactV relation.Fact
	rValid    *relation.Tuple
	sValid    *relation.Tuple
	// Storage backing rValid/sValid: the valid tuple must survive pops of
	// the source it was peeked from, so admission copies it here.
	rValidBuf relation.Tuple
	sValidBuf relation.Tuple

	// skipR/skipS enable run-skipping per side: when no tuple is valid
	// on either side and the upcoming facts differ, a side whose
	// windows would certainly fail the operation's λ-filter is galloped
	// past the absent run instead of popped tuple-by-tuple. OpCursor
	// sets them from the operation (intersection: both sides — a
	// one-sided window never passes λr ≠ null ∧ λs ≠ null; difference:
	// the right side — an s-only window never has λr ≠ null; union:
	// neither — every window is output). The skipped windows are
	// exactly those the operation discards, so skipping never changes
	// the filtered output.
	skipR, skipS bool

	// windows/gallops count produced candidate windows and run-skip
	// gallops taken (skipTo calls from skipRuns). Counted
	// unconditionally — two local increments per window are below
	// measurement noise — and published into the execution trace by the
	// traced OpCursor wrapper when tracing is on.
	windows, gallops int64
}

// release tears down both sources — the OpCursor leg of plan teardown.
func (a *Advancer) release() {
	a.r.release()
	a.s.release()
}

// Windows returns the number of candidate windows produced so far.
func (a *Advancer) Windows() int64 { return a.windows }

// Gallops returns the number of run-skip gallops taken so far.
func (a *Advancer) Gallops() int64 { return a.gallops }

// NewAdvancer returns an advancer over two relations that must already be
// sorted by (fact, Ts) — the sort step of Fig. 5. Sortedness is a
// precondition; relation.Relation.Sort establishes it. When the inputs
// carry columnar projections (Relation.BuildCols), keys and run-skip
// gallops run over the packed fid columns.
func NewAdvancer(r, s *relation.Relation) *Advancer {
	if invariant.Enabled {
		// The sweep's correctness (and every gallop) rides on the sort
		// precondition; the packed fast path additionally rides on the
		// projections mirroring the rows.
		invariant.CheckSorted(r, "core.NewAdvancer")
		invariant.CheckSorted(s, "core.NewAdvancer")
		invariant.CheckColsMirror(r, "core.NewAdvancer")
		invariant.CheckColsMirror(s, "core.NewAdvancer")
	}
	return &Advancer{r: newSliceSource(r), s: newSliceSource(s), prevWinTe: -1}
}

// NewStreamAdvancer returns an advancer pulling from two cursors that must
// yield tuples in canonical (fact, Ts) order — the streaming form of the
// sort precondition. Operator cursors and relation scans both satisfy it,
// so advancers stack: a whole query tree evaluates with one lookahead
// buffer per tree edge and no materialized intermediates. Children are
// pulled block-at-a-time (one interface call per ~BatchSize tuples).
func NewStreamAdvancer(r, s Cursor) *Advancer {
	return &Advancer{
		r:         newBatchSource(AsBatchCursor(r)),
		s:         newBatchSource(AsBatchCursor(s)),
		prevWinTe: -1,
	}
}

// enableSkip turns on run-skipping for the sides whose one-sided
// windows op discards (see the skipR/skipS field comment).
func (a *Advancer) enableSkip(op Op) {
	switch op {
	case OpIntersect:
		a.skipR, a.skipS = true, true
	case OpExcept:
		a.skipS = true
	}
}

// RExhausted reports whether the left input is fully consumed: no upcoming
// tuple and no currently valid tuple. Except uses it as its termination
// condition (windows beyond this point can never satisfy λr ≠ null).
func (a *Advancer) RExhausted() bool { return a.r.peek() == nil && a.rValid == nil }

// SExhausted is the right-hand counterpart of RExhausted.
func (a *Advancer) SExhausted() bool { return a.s.peek() == nil && a.sValid == nil }

// Next produces the next lineage-aware temporal window. It implements
// Algorithm 1 of the paper with two repairs that the pseudocode glosses
// over: (i) when both upcoming tuples start a new fact group, the
// lexicographically smaller fact is opened first (the inputs are sorted by
// fact before time, so comparing start points across different facts would
// be meaningless), and (ii) the right window boundary only considers
// upcoming tuples of the fact currently being processed.
func (a *Advancer) Next() (Window, bool) {
	if (a.skipR || a.skipS) && a.rValid == nil && a.sValid == nil {
		a.skipRuns()
	}
	r, s := a.r.peek(), a.s.peek()

	var winTs interval.Time
	if a.rValid == nil && a.sValid == nil {
		// No tuple carries over from the previous window: the next window
		// starts at an upcoming tuple (possibly opening a new fact group).
		switch {
		case r == nil && s == nil:
			return Window{}, false
		case s == nil:
			winTs = r.T.Ts
			a.setFact(r, a.r.peekKey())
		case r == nil:
			winTs = s.T.Ts
			a.setFact(s, a.s.peekKey())
		default:
			rKey, sKey := a.r.peekKey(), a.s.peekKey()
			rSame, sSame := rKey.Equal(a.currKey), sKey.Equal(a.currKey)
			switch {
			case rSame && !sSame:
				winTs = r.T.Ts
			case !rSame && sSame:
				winTs = s.T.Ts
			case rSame && sSame:
				winTs = interval.Min(r.T.Ts, s.T.Ts)
			default:
				// Both open a new fact group: take the smaller fact; on
				// equal facts, the earlier start.
				switch {
				case rKey.Less(sKey):
					winTs = r.T.Ts
					a.setFact(r, rKey)
				case sKey.Less(rKey):
					winTs = s.T.Ts
					a.setFact(s, sKey)
				default:
					winTs = interval.Min(r.T.Ts, s.T.Ts)
					a.setFact(r, rKey)
				}
			}
		}
	} else {
		// At least one tuple is still valid: the window continues
		// seamlessly from the previous one (change preservation).
		winTs = a.prevWinTe
	}

	// Admit upcoming tuples that become valid exactly at winTs. The tuple
	// is copied out of the source's lookahead buffer: it must stay valid
	// after the pop, which may overwrite the buffer on the next peek.
	if r != nil && a.r.peekKey().Equal(a.currKey) && r.T.Ts == winTs {
		a.rValidBuf = *r
		a.rValid = &a.rValidBuf
		a.r.pop()
		r = a.r.peek()
	}
	if s != nil && a.s.peekKey().Equal(a.currKey) && s.T.Ts == winTs {
		a.sValidBuf = *s
		a.sValid = &a.sValidBuf
		a.s.pop()
		s = a.s.peek()
	}

	// The right boundary is the earliest of: end points of the valid
	// tuples, and start points of the next tuples of the same fact (a start
	// point marks a change in the set of valid tuples).
	winTe := interval.Time(1<<63 - 1)
	if a.rValid != nil {
		winTe = interval.Min(winTe, a.rValid.T.Te)
	}
	if a.sValid != nil {
		winTe = interval.Min(winTe, a.sValid.T.Te)
	}
	if r != nil && a.r.peekKey().Equal(a.currKey) {
		winTe = interval.Min(winTe, r.T.Ts)
	}
	if s != nil && a.s.peekKey().Equal(a.currKey) {
		winTe = interval.Min(winTe, s.T.Ts)
	}

	w := Window{Fact: a.currFactV, Key: a.currKey, WinTs: winTs, WinTe: winTe}
	if a.rValid != nil {
		w.LamR = a.rValid.Lineage
	}
	if a.sValid != nil {
		w.LamS = a.sValid.Lineage
	}

	// Expire tuples whose end point coincides with the window boundary.
	if a.rValid != nil && a.rValid.T.Te == winTe {
		a.rValid = nil
	}
	if a.sValid != nil && a.sValid.T.Te == winTe {
		a.sValid = nil
	}
	a.prevWinTe = winTe
	a.windows++
	return w, true
}

// skipRuns gallops past runs of facts whose windows the operation is
// known to discard. Precondition: no tuple is valid on either side, so
// the next window would open at an upcoming tuple. While both upcoming
// facts differ, the smaller side's windows are one-sided for the whole
// run up to the larger fact; if the operation discards that side's
// one-sided windows (skipR/skipS), the run is skipped in O(log run)
// comparisons — packed (FactID, Ts, Te) integer compares when the
// inputs are interned — instead of being popped tuple-by-tuple. On
// low-overlap or disjoint-fact inputs this turns the sweep from O(n)
// pops into O(runs · log n).
func (a *Advancer) skipRuns() {
	for {
		r, s := a.r.peek(), a.s.peek()
		if r == nil || s == nil {
			return
		}
		rk, sk := a.r.peekKey(), a.s.peekKey()
		switch {
		case rk.Less(sk):
			if !a.skipR {
				return
			}
			a.r.skipTo(sk)
			a.gallops++
		case sk.Less(rk):
			if !a.skipS {
				return
			}
			a.s.skipTo(rk)
			a.gallops++
		default:
			return
		}
	}
}

// setFact opens a new fact group from the peeked tuple t, whose key k
// the caller already read through peekKey.
func (a *Advancer) setFact(t *relation.Tuple, k relation.FactKey) {
	a.currKey = k
	a.currFactV = t.Fact
}
