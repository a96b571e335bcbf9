package core

import (
	"fmt"

	"github.com/tpset/tpset/internal/interval"
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
// Fid is the packed id of Fact in the inputs' shared dictionary, read
// off the fid column entry of the input tuple that opened the fact
// group: an operator writes it beside the output row it builds from the
// window, which keeps every block of a stacked query tree bound to the
// one plan dictionary. A window is 64 bytes.
type Window struct {
	Fact  relation.Fact
	Fid   int64
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

// batchSource is the advancer's view of one input: a one-tuple-lookahead
// stream in (fact, Ts) order, pulled from a Cursor one block at a time —
// one interface call per ~BatchSize tuples instead of one per tuple. A
// computed input fills a pooled block, taken on its first pull, so a
// plan that is built and never read takes nothing from the pool; a scan
// fills the source's own empty block by aliasing its leaf, so it never
// takes one.
// peek returns the next unconsumed tuple (nil when drained)
// and is stable until pop, which consumes it; fid returns its packed
// fact id from the block's fid column and is only valid while peek is
// non-nil. The peeked pointer indexes straight into the block, which
// may alias the scanned relation (zero copy) and so storage shared with
// concurrent readers: callers must not mutate it, and must copy a tuple
// they need beyond the next pop.
type batchSource struct {
	c    Cursor
	b    *Batch // &blk, or a pooled block from a computed input's first pull to its end
	blk  Batch
	i    int
	done bool
	// scan is c when c is a scan (nil otherwise): every skip is then
	// answered from the scan's run index.
	scan *ScanCursor
}

func newBatchSource(c Cursor) *batchSource {
	s := &batchSource{c: c}
	s.b = &s.blk
	s.scan, _ = c.(*ScanCursor)
	return s
}

func (s *batchSource) peek() *relation.Tuple {
	for {
		if s.i < len(s.b.Tuples) {
			return &s.b.Tuples[s.i]
		}
		if !s.pull() {
			return nil
		}
	}
}

func (s *batchSource) fid() int64 { return s.b.Fid[s.i] }

func (s *batchSource) pop() { s.i++ }

// pull replaces the exhausted block with the child's next one, or ends
// the source when there is none.
func (s *batchSource) pull() bool {
	if s.done {
		return false
	}
	if s.b == &s.blk && s.scan == nil {
		s.b = GetBatch()
	}
	s.i = 0
	if !s.c.NextBatch(s.b) {
		s.end()
		return false
	}
	return true
}

// end hands a pooled block back and keeps the source's own empty block,
// so later peeks stay cheap and nothing is put twice — or put at all
// when it never came from the pool: a scan's, or a source that never
// pulled.
func (s *batchSource) end() {
	s.done = true
	if s.b != &s.blk {
		PutBatch(s.b)
	}
	s.blk, s.b, s.i = Batch{}, &s.blk, 0
}

// release ends the source early and forwards the teardown to the child
// plan — the source-level leg of Cursor teardown (CursorReleaser).
func (s *batchSource) release() {
	if !s.done {
		s.end()
	}
	ReleaseCursor(s.c)
}

// skipTo advances the source so that peek returns the first tuple at or
// above the point (fid, te): a fact id above fid, or fid itself with an
// interval that ends after te (relation.MinTime: the first tuple whose
// fact id is >= fid). It is the run-skipping entry point and only called
// when every tuple below the point is known to be filtered out by the
// operation. Over a scan the scan answers from its relation's run index,
// inside the held block or beyond it alike (ScanCursor.skipBlock). Over
// anything else the remainder of the current block is discarded by a
// gallop over its fid column and rows; when the target lies beyond it,
// the child skips itself (filters — keySkipper) or, when its output is
// computed (operator cursors), whole blocks are discarded — one gallop
// that runs off the block's end each, O(log BatchSize) probes instead of
// BatchSize pops.
func (s *batchSource) skipTo(fid int64, te interval.Time) {
	if s.scan != nil {
		if !s.done {
			if s.i = s.scan.skipBlock(s.i, fid, te); s.i >= len(s.b.Tuples) {
				s.pull()
			}
		}
		return
	}
	for {
		s.i += relation.SkipTo(s.b.Fid[s.i:], s.b.Tuples[s.i:], fid, te)
		if s.i < len(s.b.Tuples) || s.done {
			return
		}
		if sk, ok := s.c.(keySkipper); ok {
			sk.SkipTo(fid, te)
		}
		if !s.pull() {
			return
		}
	}
}

// head is what skipRuns decides a source's next move from: the fact id
// and time span of what the source holds next. A row head is the peeked
// row, whose interval is read only when a decision needs it (iv). Any
// other head is run `run` of a scan's index, whole: the scan sits at the
// run's first row, or skipRuns stepped there along the index — skips
// steps — and has not moved the source yet (land does); span covers
// every row of the run. A head holds no pointer, so filling one through
// a pointer costs no write barrier.
type head struct {
	fid   int64
	row   bool
	span  interval.Interval
	run   int
	skips int64
}

// iv returns the time h, the source's head, covers: its run's span, or
// the peeked row's interval.
func (s *batchSource) iv(h *head) interval.Interval {
	if h.row {
		return s.b.Tuples[s.i].T
	}
	return h.span
}

// head reads the source's next head into *h, or reports false when the
// source is drained. A scan that sits at a run's first row answers from
// its run index and no row or fid entry is read, unless rows asks for
// the peeked row.
func (s *batchSource) head(h *head, rows bool) bool {
	if s.peek() == nil {
		*h = head{}
		return false
	}
	if s.scan != nil && !rows {
		if k, first := s.scan.runAt(s.i); first {
			fid, span := s.scan.runs.Run(k)
			*h = head{fid: fid, span: span, run: k}
			return true
		}
	}
	*h = head{fid: s.fid(), row: true}
	return true
}

// skip moves *h, the source's head, past every tuple below the point
// (fid, te), and reports whether the source holds anything from there
// on. A row's head skips the source (skipTo) and reads the next head. A
// run's head only steps along the scan's index — to the run of the first
// fact at or above fid, or, for a time point, past itself (skipRuns skips
// a run in time only when its span is over by te) — and leaves the
// source where it is for land, so a chain of index-decided skips moves
// the source once; stepping off the index's end lands it there.
func (s *batchSource) skip(h *head, fid int64, te interval.Time) bool {
	if h.row {
		s.skipTo(fid, te)
		return s.head(h, false)
	}
	x, k := s.scan.runs, h.run+1
	if te == relation.MinTime {
		k = x.Find(h.run, fid)
	}
	if h.skips++; k == x.Len() {
		s.landRun(k, h.skips)
		*h = head{}
		return false
	}
	h.fid, h.span = x.Run(k)
	h.run = k
	return true
}

// land moves the source to *h, the head skipRuns stepped to along the
// index; a head it did not step leaves the source as it is.
func (s *batchSource) land(h *head) {
	if h.skips > 0 {
		s.landRun(h.run, h.skips)
	}
}

// landRun moves a scan source to the first row of run k of its index
// (Len: the end) for n index-decided skips.
func (s *batchSource) landRun(k int, n int64) {
	if s.i = s.scan.skipToRun(k, n); s.i >= len(s.b.Tuples) {
		s.pull()
	}
}

// validTuple is what the advancer keeps of a tuple while it is valid:
// its lineage for the windows it covers and the end point that expires
// it. The zero value is "no tuple valid".
type validTuple struct {
	ok  bool
	lam *lineage.Expr
	te  interval.Time
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
// Beyond the two lookahead buffers and what it keeps of the two
// currently valid tuples, the advancer holds no per-input state — this is
// the O(1)-additional-space property of §IV that the streaming execution
// layer (NewStreamAdvancer, OpCursor) relies on.
type Advancer struct {
	r, s *batchSource

	prevWinTe interval.Time
	// currFid is the packed id of the fact being processed (-1 before
	// the first group): every window compare of Algorithm 1 is an
	// integer compare against it. currFactV is read once per fact group
	// (setFact) to stamp the group's windows; dict is the dictionary of
	// the block the group was opened from — the plan's one dictionary,
	// which the operator above binds its output blocks to.
	currFid   int64
	currFactV relation.Fact
	dict      *keys.Dict

	// The currently valid tuple of each side — what the sweep reads of
	// it. Admission copies these two words out of the source's block,
	// which the next pull may overwrite.
	rValid, sValid validTuple

	// skipR/skipS enable run-skipping per side: when no tuple is valid
	// on either side, a side whose one-sided windows would certainly
	// fail the operation's λ-filter is galloped past them instead of
	// popped tuple-by-tuple — past the facts the other side lacks, and
	// within a shared fact past the stretch of time that ends before the
	// other side starts (skipRuns). OpCursor sets them from the
	// operation (intersection: both sides — a one-sided window never
	// passes λr ≠ null ∧ λs ≠ null; difference: the right side — an
	// s-only window never has λr ≠ null; union: neither — every window
	// is output). The skipped windows are exactly those the operation
	// discards, so skipping never changes the filtered output.
	skipR, skipS bool

	// windows/gallops count produced candidate windows and run-skip
	// gallops taken (skipTo calls from skipRuns — past a run of facts
	// or past a run of one fact's time alike). Counted
	// unconditionally — two local increments per window are below
	// measurement noise — and published into the execution trace by the
	// OpCursor that owns the advancer when tracing is on.
	windows, gallops int64
	// indexed counts the gallops decided from the two sides' run
	// indexes alone, with no row or fid entry read. It is a test's
	// probe of the index path and never published.
	indexed int64
}

// release tears down both sources — the OpCursor leg of plan teardown.
func (a *Advancer) release() {
	a.r.release()
	a.s.release()
}

// Windows returns the number of candidate windows produced so far.
func (a *Advancer) Windows() int64 { return a.windows }

// NewAdvancer returns an advancer over two relations that must already be
// sorted by (fact, Ts) — the sort step of Fig. 5 — bound to one
// dictionary and carrying their fid columns; PrepareLeaves establishes
// all three. It is NewStreamAdvancer over two scans.
func NewAdvancer(r, s *relation.Relation) *Advancer {
	return NewStreamAdvancer(NewScanCursor(r, nil), NewScanCursor(s, nil))
}

// NewStreamAdvancer returns an advancer pulling from two cursors that must
// yield tuples in canonical (fact, Ts) order — the streaming form of the
// sort precondition — in blocks bound to one shared dictionary.
// Operator cursors and relation scans both satisfy it, so advancers
// stack: a whole query tree evaluates with one lookahead buffer per tree
// edge and no materialized intermediates. Children are pulled
// block-at-a-time (one interface call per ~BatchSize tuples).
func NewStreamAdvancer(r, s Cursor) *Advancer {
	return &Advancer{
		r:         newBatchSource(r),
		s:         newBatchSource(s),
		prevWinTe: -1,
		currFid:   -1,
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
func (a *Advancer) RExhausted() bool { return a.r.peek() == nil && !a.rValid.ok }

// SExhausted is the right-hand counterpart of RExhausted.
func (a *Advancer) SExhausted() bool { return a.s.peek() == nil && !a.sValid.ok }

// Next produces the next lineage-aware temporal window. It implements
// Algorithm 1 of the paper with two repairs that the pseudocode glosses
// over: (i) when both upcoming tuples start a new fact group, the
// lexicographically smaller fact is opened first (the inputs are sorted by
// fact before time, so comparing start points across different facts would
// be meaningless), and (ii) the right window boundary only considers
// upcoming tuples of the fact currently being processed.
func (a *Advancer) Next() (Window, bool) {
	if (a.skipR || a.skipS) && !a.rValid.ok && !a.sValid.ok {
		a.skipRuns()
	}
	r, s := a.r.peek(), a.s.peek()

	var winTs interval.Time
	if !a.rValid.ok && !a.sValid.ok {
		// No tuple carries over from the previous window: the next window
		// starts at an upcoming tuple (possibly opening a new fact group).
		switch {
		case r == nil && s == nil:
			return Window{}, false
		case s == nil:
			winTs = r.T.Ts
			a.setFact(a.r)
		case r == nil:
			winTs = s.T.Ts
			a.setFact(a.s)
		default:
			rFid, sFid := a.r.fid(), a.s.fid()
			rSame, sSame := rFid == a.currFid, sFid == a.currFid
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
				case rFid < sFid:
					winTs = r.T.Ts
					a.setFact(a.r)
				case sFid < rFid:
					winTs = s.T.Ts
					a.setFact(a.s)
				default:
					winTs = interval.Min(r.T.Ts, s.T.Ts)
					a.setFact(a.r)
				}
			}
		}
	} else {
		// At least one tuple is still valid: the window continues
		// seamlessly from the previous one (change preservation).
		winTs = a.prevWinTe
	}

	// Admit upcoming tuples that become valid exactly at winTs. What the
	// sweep needs of the tuple is copied out of the source's block: it
	// must survive the pop, after which the next peek may pull a new
	// block over it.
	if r != nil && a.r.fid() == a.currFid && r.T.Ts == winTs {
		a.rValid = validTuple{ok: true, lam: r.Lineage, te: r.T.Te}
		a.r.pop()
		r = a.r.peek()
	}
	if s != nil && a.s.fid() == a.currFid && s.T.Ts == winTs {
		a.sValid = validTuple{ok: true, lam: s.Lineage, te: s.T.Te}
		a.s.pop()
		s = a.s.peek()
	}

	// The right boundary is the earliest of: end points of the valid
	// tuples, and start points of the next tuples of the same fact (a start
	// point marks a change in the set of valid tuples).
	winTe := interval.Time(1<<63 - 1)
	if a.rValid.ok {
		winTe = interval.Min(winTe, a.rValid.te)
	}
	if a.sValid.ok {
		winTe = interval.Min(winTe, a.sValid.te)
	}
	if r != nil && a.r.fid() == a.currFid {
		winTe = interval.Min(winTe, r.T.Ts)
	}
	if s != nil && a.s.fid() == a.currFid {
		winTe = interval.Min(winTe, s.T.Ts)
	}

	// An invalid side's lam is nil: the window reads "no tuple" there.
	w := Window{Fact: a.currFactV, Fid: a.currFid, WinTs: winTs, WinTe: winTe,
		LamR: a.rValid.lam, LamS: a.sValid.lam}

	// Expire tuples whose end point coincides with the window boundary.
	if a.rValid.ok && a.rValid.te == winTe {
		a.rValid = validTuple{}
	}
	if a.sValid.ok && a.sValid.te == winTe {
		a.sValid = validTuple{}
	}
	a.prevWinTe = winTe
	a.windows++
	return w, true
}

// skipRuns skips past runs of tuples whose windows the operation is
// known to discard. Precondition: no tuple is valid on either side, so
// the next window would open at an upcoming tuple. While the upcoming
// facts differ, the smaller side's windows are one-sided for the whole
// run up to the larger fact. While they are equal and one side's
// upcoming tuple ends at or before the other's starts (half-open
// intervals: Te == Ts does not overlap), that side's windows are
// one-sided up to that start — and so are those of every later tuple of
// the fact that is over by then. If the operation discards that side's
// one-sided windows (skipR/skipS), the run is skipped in one call
// instead of being popped tuple-by-tuple: batchSource.skipTo lands on
// the first tuple of a larger fact, or of this fact and still running
// after the other side's start. On inputs that rarely share a fact at
// the same time this turns the sweep from O(n) pops into O(output + runs)
// skips, each a step of a leaf's fact-run index (a log-search of end
// points only when it lands inside a run) or a gallop of a computed
// child's block.
//
// A scan that sits at a run's first row is decided from its run index:
// the run's fact, its first start and its last end (head). A smaller
// fact is skipped by galloping the index's fact ids, and a run whose
// span ends at or before the other side's start is skipped whole; such
// skips step along the index without moving the source, which lands
// once, on the first row of the run the steps reached. Only when the
// spans meet are the rows read: the peeked rows decide exactly as they
// would have, so the windows, the gallops and their landings are the
// same either way; the index only spares the reads and the moves.
func (a *Advancer) skipRuns() {
	var r, s head
	rok, sok := a.r.head(&r, false), a.s.head(&s, false)
loop:
	for rok && sok {
		indexed := !r.row && !s.row
		switch {
		case r.fid < s.fid && a.skipR:
			rok = a.r.skip(&r, s.fid, relation.MinTime)
		case s.fid < r.fid && a.skipS:
			sok = a.s.skip(&s, r.fid, relation.MinTime)
		case r.fid == s.fid && a.skipS && a.s.iv(&s).Te <= a.r.iv(&r).Ts:
			sok = a.s.skip(&s, s.fid, a.r.iv(&r).Ts)
		case r.fid == s.fid && a.skipR && a.r.iv(&r).Te <= a.s.iv(&s).Ts:
			rok = a.r.skip(&r, r.fid, a.s.iv(&s).Ts)
		case !r.row || !s.row: // the spans meet: decide from the rows
			a.r.land(&r)
			a.s.land(&s)
			a.r.head(&r, true)
			a.s.head(&s, true)
			continue
		default:
			break loop
		}
		if indexed {
			a.indexed++
		}
		a.gallops++
	}
	a.r.land(&r)
	a.s.land(&s)
}

// setFact opens a new fact group at src's peeked tuple: its id and fact
// values stamp every window (and so every output row) of the group.
func (a *Advancer) setFact(src *batchSource) {
	a.currFid = src.fid()
	a.currFactV = src.b.Tuples[src.i].Fact
	a.dict = src.b.Dict
}
