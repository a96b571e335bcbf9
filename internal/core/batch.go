package core

import (
	"sync"
	"sync/atomic"

	"github.com/tpset/tpset/internal/invariant"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Batched (vectorized) cursor execution. A Batch is a block of tuples in
// canonical (fact, Ts, Te) order — the unit the execution stack moves
// around instead of single tuples wherever per-tuple costs would
// otherwise dominate: interface calls inside a cursor plan, channel
// operations between the engine's shard producers and its consumer, and
// encoder/flush calls on the NDJSON stream. Amortizing those costs over
// ~BatchSize tuples is the MonetDB/X100 observation; the tuple-at-a-time
// Cursor API stays intact on top of it (every BatchCursor is a Cursor),
// so callers opt into blocks without a second execution semantics.

// BatchSize is the default tuple capacity of a pooled batch. Large
// enough that per-batch costs (one interface call, one channel op, one
// flush decision) are amortized ~1000x; small enough that a batch of
// tuples (~100 B each) stays comfortably inside L2 and time-to-first-
// tuple remains a sub-millisecond concern.
const BatchSize = 1024

// Batch is a reusable block of tuples with two coherent views.
//
// Tuples is the universal payload view every consumer can read; it
// either aliases caller-owned memory (a zero-copy scan sub-window) or
// the batch's own pooled storage — producers decide per fill, consumers
// cannot tell the difference and must treat the tuples as read-only
// until they copy them out.
//
// Fid/Ts/Te/Prob/Lam are the columnar (structure-of-arrays) view: when
// Dict is non-nil, row i of every column mirrors Tuples[i] — Fid the
// packed interned id, Ts/Te the interval, Prob the probability, Lam the
// lineage pointer — and (Fid, Ts, Te) integer compares ARE canonical
// tuple order. Hot loops (the advancer's window compares, galloping
// skips, the encoder's read side) run on
// the packed columns and fall back to the payload view whenever Dict is
// nil: a batch whose tuples span dictionaries, or are unbound, simply
// carries no columns. Like the payload view, the columns either alias a
// relation's cached projection (relation.Cols) or the batch's own pooled
// arrays.
type Batch struct {
	Tuples []relation.Tuple

	Fid  []int64
	Ts   []int64
	Te   []int64
	Prob []float64
	Lam  []*lineage.Expr
	// Dict is non-nil iff the columns are valid: every tuple of the
	// batch is interned against it and the column rows mirror Tuples.
	Dict *keys.Dict

	// own* are the pooled backing arrays. Reset points the views at
	// them; alias fills (ScanCursor) leave them untouched so the pool
	// never loses its storage to a foreign slice.
	own     []relation.Tuple
	ownFid  []int64
	ownTs   []int64
	ownTe   []int64
	ownProb []float64
	ownLam  []*lineage.Expr

	// capacity is the fill target, recorded at construction — the one
	// capacity account for payload and columns alike (cap(own) and the
	// column caps all equal it; PutBatch checks it, not cap(own)).
	capacity int
}

// NewBatch returns an unpooled batch with the given tuple capacity —
// tests use tiny capacities to force mid-batch boundaries; everything
// else takes pooled BatchSize batches from GetBatch.
func NewBatch(capacity int) *Batch {
	b := &Batch{
		own:      make([]relation.Tuple, 0, capacity),
		ownFid:   make([]int64, 0, capacity),
		ownTs:    make([]int64, 0, capacity),
		ownTe:    make([]int64, 0, capacity),
		ownProb:  make([]float64, 0, capacity),
		ownLam:   make([]*lineage.Expr, 0, capacity),
		capacity: capacity,
	}
	b.Reset()
	return b
}

// Reset points both views at the batch's own empty storage; producers
// that build output row-by-row call it and Append (capacity is
// guaranteed, so appends never reallocate). Columns start empty and
// unbound — the first appended tuple decides whether the batch is
// columnar.
func (b *Batch) Reset() {
	b.Tuples = b.own[:0]
	b.Fid = b.ownFid[:0]
	b.Ts = b.ownTs[:0]
	b.Te = b.ownTe[:0]
	b.Prob = b.ownProb[:0]
	b.Lam = b.ownLam[:0]
	b.Dict = nil
}

// dropCols abandons the columnar view (mixed-dict or unbound content):
// consumers fall back to the payload view. The column storage stays
// owned for the next Reset.
func (b *Batch) dropCols() {
	b.Fid = b.ownFid[:0]
	b.Ts = b.ownTs[:0]
	b.Te = b.ownTe[:0]
	b.Prob = b.ownProb[:0]
	b.Lam = b.ownLam[:0]
	b.Dict = nil
}

// checkInvariants asserts the batch representation contracts
// (tpinvariants builds only): the capacity account covers the pooled
// backing storage — the single account PutBatch trusts when it decides
// a block may re-enter the pool — and the columnar view, when bound,
// mirrors the payload length-for-length (a bound batch with ragged
// columns would feed stale column rows to every packed-path consumer).
func (b *Batch) checkInvariants(site string) {
	invariant.Assertf(cap(b.own) >= b.capacity && cap(b.ownFid) >= b.capacity &&
		cap(b.ownTs) >= b.capacity && cap(b.ownTe) >= b.capacity &&
		cap(b.ownProb) >= b.capacity && cap(b.ownLam) >= b.capacity,
		site, "batch capacity account %d exceeds backing storage (own %d, fid %d, ts %d, te %d, prob %d, lam %d)",
		b.capacity, cap(b.own), cap(b.ownFid), cap(b.ownTs), cap(b.ownTe), cap(b.ownProb), cap(b.ownLam))
	if b.Dict != nil {
		n := len(b.Tuples)
		invariant.Assertf(len(b.Fid) == n && len(b.Ts) == n && len(b.Te) == n && len(b.Prob) == n && len(b.Lam) == n,
			site, "bound batch columns (%d/%d/%d/%d/%d) do not mirror %d payload rows",
			len(b.Fid), len(b.Ts), len(b.Te), len(b.Prob), len(b.Lam), n)
	}
}

// HasCols reports whether the columnar view is valid.
func (b *Batch) HasCols() bool { return b.Dict != nil }

// Cap returns the fill target of the batch (aliasing fills use it to
// size sub-windows consistently). The zero Batch — used as an empty
// placeholder by drained sources — reports the default size.
func (b *Batch) Cap() int {
	if b.capacity > 0 {
		return b.capacity
	}
	return BatchSize
}

// Len returns the number of tuples currently in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// Append adds one tuple to a Reset-based fill, maintaining the columnar
// view: the first appended tuple's binding decides the batch dictionary,
// every same-dict tuple extends the columns, and the first mismatching
// tuple drops them (the payload view is always complete). Producers
// that fill by aliasing instead (ScanCursor) never call it.
func (b *Batch) Append(t relation.Tuple) {
	if len(b.Tuples) == 0 {
		b.Tuples = append(b.Tuples, t)
		if d, id := t.Binding(); d != nil {
			b.Dict = d
			b.Fid = append(b.Fid[:0], int64(id))
			b.Ts = append(b.Ts[:0], t.T.Ts)
			b.Te = append(b.Te[:0], t.T.Te)
			b.Prob = append(b.Prob[:0], t.Prob)
			b.Lam = append(b.Lam[:0], t.Lineage)
		}
		return
	}
	b.Tuples = append(b.Tuples, t)
	if b.Dict == nil {
		return
	}
	if d, id := t.Binding(); d == b.Dict {
		b.Fid = append(b.Fid, int64(id))
		b.Ts = append(b.Ts, t.T.Ts)
		b.Te = append(b.Te, t.T.Te)
		b.Prob = append(b.Prob, t.Prob)
		b.Lam = append(b.Lam, t.Lineage)
	} else {
		b.dropCols()
	}
}

// AppendRange bulk-appends rows [i, j) of src, carrying the columnar
// view along when it stays coherent: src columnar and this batch empty
// (adopt src's dictionary) or already on the same dictionary. Any other
// combination drops this batch's columns. The engine's shard
// concatenation copies blocks out with it.
func (b *Batch) AppendRange(src *Batch, i, j int) {
	if i >= j {
		return
	}
	wasEmpty := len(b.Tuples) == 0
	b.Tuples = append(b.Tuples, src.Tuples[i:j]...)
	if src.Dict != nil && (b.Dict == src.Dict || (wasEmpty && b.Dict == nil)) {
		b.Dict = src.Dict
		b.Fid = append(b.Fid, src.Fid[i:j]...)
		b.Ts = append(b.Ts, src.Ts[i:j]...)
		b.Te = append(b.Te, src.Te[i:j]...)
		b.Prob = append(b.Prob, src.Prob[i:j]...)
		b.Lam = append(b.Lam, src.Lam[i:j]...)
		return
	}
	if b.Dict != nil {
		b.dropCols()
	}
}

var batchPool = sync.Pool{
	New: func() any {
		batchPoolNews.Add(1)
		return NewBatch(BatchSize)
	},
}

// Batch-pool instruments: gets and puts count pool traffic, news counts
// pool misses (the pool had to allocate fresh storage — GC dropped the
// pool or demand outgrew it), drops counts PutBatch rejections of
// odd-capacity blocks. One atomic add per ~BatchSize tuples — noise.
var batchPoolGets, batchPoolPuts, batchPoolNews, batchPoolDrops atomic.Uint64

// BatchPoolStats returns the batch-pool counters (gets, puts, pool
// misses, odd-capacity drops) for the metrics endpoint.
func BatchPoolStats() (gets, puts, news, drops uint64) {
	return batchPoolGets.Load(), batchPoolPuts.Load(), batchPoolNews.Load(), batchPoolDrops.Load()
}

// GetBatch returns an empty pooled batch of BatchSize capacity.
func GetBatch() *Batch {
	batchPoolGets.Add(1)
	b := batchPool.Get().(*Batch)
	b.Reset()
	if invariant.Enabled {
		invariant.Assertf(b.capacity == BatchSize, "core.GetBatch",
			"pooled batch has capacity %d, want %d", b.capacity, BatchSize)
	}
	return b
}

// PutBatch returns a batch to the pool. The caller must not touch the
// batch (or any view slice it handed out) afterwards. Contents are not
// cleared — a pool entry pins at most one batch worth of rows, and the
// pool itself is dropped on GC pressure. Odd-sized batches (NewBatch
// with a capacity other than BatchSize — ramp-up blocks, test batches)
// and the zero Batch are dropped rather than pooled, so GetBatch always
// returns full-capacity storage across payload and columns alike (the
// capacity field is the single account for all of them; checking
// cap(own) alone predates the columns and would re-pool a batch whose
// column arrays had been swapped out).
func PutBatch(b *Batch) {
	if invariant.Enabled {
		b.checkInvariants("core.PutBatch")
	}
	if b.capacity != BatchSize {
		batchPoolDrops.Add(1)
		return
	}
	batchPoolPuts.Add(1)
	b.Tuples = nil
	b.Fid, b.Ts, b.Te, b.Prob, b.Lam, b.Dict = nil, nil, nil, nil, nil, nil
	batchPool.Put(b)
}

// FillBatch resets b and fills it through next until it holds Cap()
// tuples or the stream ends, reporting whether it produced any — the
// one batch-fill loop behind every tuple-pulling NextBatch
// implementation (operator cursors, adapters, fallbacks). The columnar
// view is maintained through Append.
func FillBatch(b *Batch, next func() (relation.Tuple, bool)) bool {
	b.Reset()
	max := b.Cap()
	for len(b.Tuples) < max {
		t, ok := next()
		if !ok {
			break
		}
		b.Append(t)
	}
	return len(b.Tuples) > 0
}

// BatchCursor is a Cursor that can also deliver its stream in blocks.
// NextBatch fills b (after resetting it) with up to b.Cap() tuples in
// canonical order and reports whether it produced any; after the first
// false it keeps returning false. Next and NextBatch draw from the same
// underlying stream and may be interleaved — every tuple is delivered
// exactly once, in order, whichever way it is pulled.
type BatchCursor interface {
	Cursor
	NextBatch(b *Batch) bool
}

// keySkipper is implemented by cursors that can advance past a run of
// facts in sub-linear time: SkipTo discards every upcoming tuple whose
// fact key is below k. Scans gallop (exponential probe + binary search
// over the packed (FactID, Ts, Te) order when interned); filters
// forward to their input. The advancer's run-skipping uses it through
// batchSource; operator cursors deliberately do not implement it —
// their output is computed, so "skipping" it would still compute it.
type keySkipper interface {
	SkipTo(k relation.FactKey)
}

// NextBatch fills b with the next sub-window of the scanned relation —
// zero copy: b.Tuples aliases the relation's own storage, and when the
// relation carries a columnar projection the column views alias it the
// same way, so a scan batch costs a handful of slice-header writes
// regardless of size. Consumers must treat the rows as read-only (the
// relation may be shared, e.g. a catalog relation under AssumeSorted).
func (c *ScanCursor) NextBatch(b *Batch) bool {
	n := len(c.r.Tuples) - c.i
	if n <= 0 {
		b.Reset()
		return false
	}
	if max := b.Cap(); n > max {
		n = max
	}
	i, j := c.i, c.i+n
	b.Tuples = c.r.Tuples[i:j]
	if cols := c.r.Cols(); cols != nil {
		b.Fid = cols.Fid[i:j]
		b.Ts = cols.Ts[i:j]
		b.Te = cols.Te[i:j]
		b.Prob = cols.Prob[i:j]
		b.Lam = cols.Lam[i:j]
		b.Dict = c.r.Dict()
	} else if b.Dict != nil || len(b.Fid) > 0 {
		b.dropCols() // a previous alias fill may have left foreign columns
	}
	c.i = j
	return true
}

// SkipTo advances the scan past every tuple whose fact key is below k,
// by galloping: exponential probe to bracket the run, then binary
// search inside the bracket. Over a columnar projection the gallop runs
// on the packed fid column (one int64 load per probe); otherwise on
// interned relations every comparison is still a single integer
// compare, so skipping an absent run of m tuples costs O(log m) instead
// of the O(m) pops of the tuple-at-a-time sweep.
func (c *ScanCursor) SkipTo(k relation.FactKey) {
	if cols := c.r.Cols(); cols != nil {
		if id, ok := k.IDIn(c.r.Dict()); ok {
			c.i += relation.SkipToFid(cols.Fid[c.i:], id)
			return
		}
	}
	c.i += relation.SkipToKey(c.r.Tuples[c.i:], k)
}

// NextBatch drains windows through the operation's λ-filter into the
// output batch until it is full or the operation terminates — the
// advancer runs without surfacing an interface call per tuple, and the
// per-operation termination conditions of Algorithms 2–4 are re-checked
// between windows exactly as in Next. Output rows are interned (they
// inherit the window key's binding), so the batch comes out columnar
// whenever the operation's inputs share one dictionary.
func (c *OpCursor) NextBatch(b *Batch) bool {
	return FillBatch(b, c.Next)
}

// tupleAdapter lifts any Cursor to a BatchCursor by filling batches
// through Next. Every cursor the plan builders produce streams batches
// natively; the shim serves cursors implemented outside them.
type tupleAdapter struct{ Cursor }

func (a tupleAdapter) NextBatch(b *Batch) bool {
	return FillBatch(b, a.Next)
}

// AsBatchCursor returns c itself when it already streams batches, and a
// batching adapter over Next otherwise. Everything that consumes a
// cursor — the advancer's sources, Materialize, selections, tracing,
// the engine's shard producers — pulls blocks through it, so there is
// one pull protocol below the public Cursor.Next.
func AsBatchCursor(c Cursor) BatchCursor {
	if bc, ok := c.(BatchCursor); ok {
		return bc
	}
	return tupleAdapter{c}
}
