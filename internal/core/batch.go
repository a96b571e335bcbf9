package core

import (
	"sync"
	"sync/atomic"

	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/relation"
)

// Batched (vectorized) cursor execution. A Batch is a block of tuples in
// canonical (fact, Ts, Te) order — the one unit the execution stack
// moves, because per-tuple costs would otherwise dominate: interface
// calls inside a cursor plan, channel operations between the engine's
// shard producers and its consumer, and encoder/flush calls on the
// NDJSON stream. Amortizing those costs over ~BatchSize tuples is the
// MonetDB/X100 observation.

// BatchSize is the default tuple capacity of a pooled batch. Large
// enough that per-batch costs (one interface call, one channel op, one
// flush decision) are amortized ~1000x; small enough that a batch of
// tuples (~100 B each) stays comfortably inside L2 and time-to-first-
// tuple remains a sub-millisecond concern.
const BatchSize = 1024

// Batch is a reusable block of rows plus their fid column.
//
// Tuples is the payload every consumer reads; Fid[i] is the packed
// interned id of Tuples[i] against Dict, the one dictionary of the plan
// the block travels through. Ids are ranks over the sorted key set, so
// comparing Fid entries IS comparing facts in canonical order: the
// advancer's window compares and every run-skip gallop run on the
// column, and everything else about a row — interval, lineage,
// probability, fact values — is read from the row itself.
//
// Both slices either alias caller-owned memory (a zero-copy scan
// sub-window of a relation and its fid column) or the batch's own
// pooled storage — producers decide per fill, consumers cannot tell the
// difference and must treat the block as read-only until they copy rows
// out.
//
// Every block handed across a NextBatch is bound: Dict != nil and
// len(Fid) == len(Tuples). The column is the block's only fact binding —
// a row carries none — so whoever fills a block writes the id beside the
// row: a scan aliases the leaf's column, an operator writes the window's
// id, a selection forwards its input's. core.PrepareLeaves establishes
// the binding for the leaves of a plan; the engine's oracle harness
// checks it on every block a plan delivers.
type Batch struct {
	Tuples []relation.Tuple
	Fid    []int64
	Dict   *keys.Dict

	// own/ownFid are the pooled backing arrays. Reset points the views
	// at them; alias fills (ScanCursor) leave them untouched so the pool
	// never loses its storage to a foreign slice.
	own    []relation.Tuple
	ownFid []int64

	// capacity is the fill target, recorded at construction — the one
	// capacity account for rows and ids alike (PutBatch checks it, not
	// cap(own)).
	capacity int
}

// NewBatch returns an unpooled batch with the given tuple capacity —
// tests use tiny capacities to force mid-batch boundaries; everything
// else takes pooled BatchSize batches from GetBatch.
func NewBatch(capacity int) *Batch {
	b := &Batch{
		own:      make([]relation.Tuple, 0, capacity),
		ownFid:   make([]int64, 0, capacity),
		capacity: capacity,
	}
	b.Reset()
	return b
}

// Reset points the views at the batch's own empty storage; producers
// that build output row-by-row call it and Append (capacity is
// guaranteed, so appends never reallocate).
func (b *Batch) Reset() {
	b.Tuples = b.own[:0]
	b.Fid = b.ownFid[:0]
	b.Dict = nil
}

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

// Append adds one row and its id to a Reset-based fill; the producer
// sets Dict (query.selectCursor forwards its input block's row, id and
// dictionary). Producers that fill by aliasing instead (ScanCursor) or
// in place (OpCursor) never call it.
func (b *Batch) Append(t relation.Tuple, fid int64) {
	b.Tuples = append(b.Tuples, t)
	b.Fid = append(b.Fid, fid)
}

// AppendRange bulk-appends rows [i, j) of src with their ids. The
// engine's shard concatenation copies blocks out with it.
func (b *Batch) AppendRange(src *Batch, i, j int) {
	if i >= j {
		return
	}
	b.Dict = src.Dict
	b.Tuples = append(b.Tuples, src.Tuples[i:j]...)
	b.Fid = append(b.Fid, src.Fid[i:j]...)
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
	return b
}

// PutBatch returns a batch to the pool. The caller must not touch the
// batch (or any view slice it handed out) afterwards. Contents are not
// cleared — a pool entry pins at most one batch worth of rows, and the
// pool itself is dropped on GC pressure. Odd-sized batches (NewBatch
// with a capacity other than BatchSize — test batches) and the zero
// Batch are dropped rather than pooled, so GetBatch always returns
// full-capacity storage for rows and ids alike (the capacity field is
// the single account for both).
func PutBatch(b *Batch) {
	if b.capacity != BatchSize {
		batchPoolDrops.Add(1)
		return
	}
	batchPoolPuts.Add(1)
	b.Tuples, b.Fid, b.Dict = nil, nil, nil
	batchPool.Put(b)
}

// AsBatchCursor returns c: every Cursor streams blocks. Kept only because
// the benchmark harness calls it (benchmark/layers.go) — delete it with
// ROADMAP item 1(a).
func AsBatchCursor(c Cursor) Cursor { return c }
