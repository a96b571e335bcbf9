package engine

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// Streaming (cursor-plan) execution — the engine's one execution path.
// The engine composes with the cursor layer by partitioning the *leaf*
// relations once, by fact hash, and evaluating the whole query tree per
// partition as an independent streaming cursor plan: every TP set
// operation and selection is per-fact, so the query restricted to one
// fact partition equals the restriction of the query's result to those
// facts. Shard plans run on their own goroutines, feeding bounded
// channels of blocks, and a k-way merge over the blocks' frontiers
// (mergeBatchStream) restores global canonical order incrementally.
//
// Memory: each shard plan is O(tree depth); the one materialized cost is
// the partitioned copy of the leaf relations (O(input), paid before any
// output). Inputs below the partitioning threshold skip that too and run
// the purely sequential cursor plan, which is O(tree depth) end to end.

// batchChanBuf is the per-shard channel buffer, in batches: two full
// blocks per shard decouple producer and consumer while bounding the
// tuples in flight to shards × batchChanBuf × core.BatchSize.
const batchChanBuf = 2

// rampBatchSize is the capacity of each shard's first block: small, so
// the merge's priming — which needs a head block from every shard —
// completes after a few sweep outputs per shard and the stream's first
// tuple is not delayed by full-block fills (see the producer loop).
const rampBatchSize = 64

// StreamCursor is a core.BatchCursor over a whole query tree, evaluated
// sequentially or partition-parallel. Callers that do not drain it must
// Close it to release the shard goroutines; Close is idempotent and safe
// after full drains too.
type StreamCursor struct {
	schema    relation.Schema
	nextBatch func(*core.Batch) bool
	stop      func()

	// Adapter state: Next drains blocks through cur; NextBatch over a
	// partially drained block serves the remainder tuple-wise so the two
	// pull styles can interleave.
	cur  *core.Batch
	ci   int
	done bool
}

// Schema returns the plan's output schema.
func (c *StreamCursor) Schema() relation.Schema { return c.schema }

// Next returns the next result tuple in canonical (fact, Ts, Te) order.
func (c *StreamCursor) Next() (relation.Tuple, bool) {
	for {
		if c.cur != nil && c.ci < len(c.cur.Tuples) {
			t := c.cur.Tuples[c.ci]
			c.ci++
			return t, true
		}
		if c.done {
			return relation.Tuple{}, false
		}
		if c.cur == nil {
			c.cur = core.GetBatch()
		}
		if !c.nextBatch(c.cur) {
			c.done = true
			core.PutBatch(c.cur)
			c.cur = nil
			return relation.Tuple{}, false
		}
		c.ci = 0
	}
}

// NextBatch fills b with the next block of result tuples; it implements
// core.BatchCursor, so Materialize and the NDJSON stream drain engine
// plans block-at-a-time.
func (c *StreamCursor) NextBatch(b *core.Batch) bool {
	if c.cur == nil || c.ci >= len(c.cur.Tuples) {
		return c.nextBatch(b)
	}
	return core.FillBatch(b, c.Next)
}

// Close releases the plan's resources: shard producer goroutines and —
// on a partially drained plan — every pooled block still in flight (the
// adapter's current block, operator buffers, the merge's per-lane heads,
// and blocks the producers had queued on the shard channels). After
// Close, Next must not be called again.
func (c *StreamCursor) Close() {
	if c.stop != nil {
		c.stop()
	}
	c.done = true
	if c.cur != nil {
		core.PutBatch(c.cur)
		c.cur = nil
	}
}

// Cursor compiles the query into a streaming plan over db. With an input
// large enough to partition and a worker budget above one, the plan
// evaluates fact-hash shards of the query concurrently and merges their
// ordered outputs on the fly; otherwise it is the sequential cursor plan.
// Either way the stream is the same — Def. 3's result in canonical order
// — with no intermediate relation materialized.
func (e *Engine) Cursor(n query.Node, db map[string]*relation.Relation, opts core.Options) (*StreamCursor, error) {
	return e.CursorCtx(context.Background(), n, db, opts)
}

// CursorCtx is Cursor with a request context. The context carries two
// observability hooks: a cancellation signal — shard producers abandon
// their sweep when the context is cancelled (a streaming client that
// disconnects stops paying for shards it will never read) — and an
// optional request-scoped logger (obs.WithLogger), which makes shard
// producers emit per-shard debug records tagged with the request ID.
//
// Tracing: when opts.Span is set, the sequential plan threads it
// through query.BuildCursor as usual; the partitioned plan labels it as
// the k-way merge node, hangs one per-shard plan subtree under it
// (each a full traced cursor tree over that shard's partitions) and
// additionally records channel-stall time — producer time blocked on a
// full shard channel, merge time blocked waiting for a shard's next
// block.
func (e *Engine) CursorCtx(ctx context.Context, n query.Node, db map[string]*relation.Relation, opts core.Options) (*StreamCursor, error) {
	names := query.Relations(n)
	var rels []*relation.Relation
	total := 0
	for _, name := range names {
		if r, ok := db[name]; ok {
			rels = append(rels, r)
			total += r.Len()
		}
	}
	// Partitioning hashes interned fact ids only when every referenced
	// relation is bound to one shared dictionary — otherwise the shard of
	// a fact would differ between relations and the per-shard plans would
	// no longer compute the query's restriction to disjoint fact sets.
	byID := relation.SharedDict(rels...) != nil
	shards := e.shardCount(total)
	if !opts.AssumeSorted && !byID {
		// Unsorted inputs without a common dictionary are interned once
		// by the sequential plan's leaf preparation; partitioning them
		// first would sort and sweep every shard on key strings.
		shards = 1
	}
	if shards < 2 {
		c, err := query.BuildCursor(n, db, opts)
		if err != nil {
			return nil, err
		}
		// The partitioned plan observes cancellation for free — its
		// producers select on ctx.Done — but the sequential plan runs
		// entirely on the caller's goroutine and would otherwise sweep to
		// completion after the deadline fired. A batch is already an
		// amortization unit, so check once per block.
		pull := core.AsBatchCursor(c).NextBatch
		return &StreamCursor{
			schema:    c.Schema(),
			nextBatch: func(b *core.Batch) bool { return ctx.Err() == nil && pull(b) },
			// Close on an abandoned sequential plan releases the pooled
			// blocks its operator buffers still hold.
			stop: func() { core.ReleaseCursor(c) },
		}, nil
	}

	if opts.Validate {
		for _, r := range rels {
			if err := r.ValidateDuplicateFree(); err != nil {
				return nil, err
			}
		}
		opts.Validate = false // validated once; not per shard
	}

	// Partition every referenced relation; shard i of the database is the
	// i-th partition of each. Fact groups stay whole within one shard, so
	// the shard plans cover pairwise disjoint fact sets. The partitions
	// are freshly built and private, so unsorted inputs are handled by
	// sorting each shard's partitions in place — on the shard's own
	// goroutine, parallelizing the dominant sort cost — rather than
	// letting BuildCursor clone every leaf a second time (partitioning is
	// stable, so sorted inputs yield sorted shards and the sort pass is
	// skipped entirely).
	shardDBs := make([]map[string]*relation.Relation, shards)
	for i := range shardDBs {
		shardDBs[i] = make(map[string]*relation.Relation, len(names))
	}
	for _, name := range names {
		r, ok := db[name]
		if !ok {
			// Let BuildCursor below produce the canonical error.
			continue
		}
		for i, part := range partition(r, shards, byID) {
			shardDBs[i][name] = part
		}
	}
	needSort := !opts.AssumeSorted
	opts.AssumeSorted = true // shard partitions are engine-private

	// Build every shard plan up front so plan errors surface synchronously.
	// With tracing on, the request's span becomes the merge node and each
	// shard plan records into its own subtree beneath it.
	rootSp := opts.Span
	curs := make([]core.Cursor, shards)
	shardSpans := make([]*obs.Span, shards)
	for i := range curs {
		shardOpts := opts
		if rootSp != nil {
			shardSpans[i] = rootSp.NewChild("")
			shardOpts.Span = shardSpans[i]
		}
		c, err := query.BuildCursor(n, shardDBs[i], shardOpts)
		if err != nil {
			return nil, err
		}
		if rootSp != nil {
			shardSpans[i].PrefixOp(fmt.Sprintf("shard%d: ", i))
		}
		curs[i] = c
	}
	if rootSp != nil {
		rootSp.SetOp(fmt.Sprintf("merge[%d shards]", shards))
	}
	lg := obs.Logger(ctx)
	ctxDone := ctx.Done() // nil without a cancellable ctx: select case never fires

	// Every shard producer gets its own goroutine rather than a slot in
	// a Workers-sized pool: the merge needs every shard's head block, so
	// admitting only Workers shards at a time could deadlock (a running
	// shard blocks on its full channel while an unstarted shard starves
	// the merge). The shard count is already sized from the worker budget,
	// and the bounded channels provide backpressure.
	done := make(chan struct{})

	// Each producer fills pooled blocks of up to core.BatchSize tuples and
	// sends the block — one channel operation (and at most one goroutine
	// wakeup) per ~1000 tuples. The merge advances over the shard blocks'
	// frontiers and emits blocks itself.
	chans := make([]chan *core.Batch, shards)
	for i := range curs {
		ch := make(chan *core.Batch, batchChanBuf)
		chans[i] = ch
		go func(i int, c core.BatchCursor, sdb map[string]*relation.Relation, ch chan *core.Batch) {
			defer close(ch)
			// On every exit — drained, cancelled, closed — tear the
			// shard plan down so operator-buffered pooled blocks go
			// back. Registered after close(ch), so it runs before it:
			// Close's channel drain observing the close also sees the
			// plan fully released.
			defer core.ReleaseCursor(c)
			sp := shardSpans[i]
			start := time.Now()
			sent := 0
			if needSort {
				// Scans hold the partition pointers, so sorting in place
				// before the first NextBatch is safe and feeds them
				// sorted.
				for _, part := range sdb {
					part.Sort()
				}
			}
			// Project the shard's private partitions into columns on the
			// shard's own goroutine, before the first pull: leaf scans
			// then alias packed columns into their batches. Partitions
			// below the amortization threshold are swept through their
			// tuple structs — see DefaultMinColsRows.
			for _, part := range sdb {
				if part.Len() >= e.cfg.minColsRows() {
					part.BuildCols()
				}
			}
			// The first block is deliberately small: the downstream
			// merge cannot emit anything until every live shard has
			// delivered a head block, so a full-size first fill would
			// delay the stream's first tuple by shards × BatchSize
			// sweep outputs. Later blocks are full-size pooled ones.
			first := true
			for {
				// Bail out before acquiring the next block: once the
				// consumer closes the stream, a select between an
				// enabled send and a closed done channel picks
				// randomly, so without this check a producer could
				// keep winning the send race against Close's channel
				// drain and sweep the rest of its shard for nothing.
				select {
				case <-done:
					return
				case <-ctxDone:
					return
				default:
				}
				var b *core.Batch
				if first {
					b, first = core.NewBatch(rampBatchSize), false
				} else {
					b = core.GetBatch()
				}
				if !c.NextBatch(b) {
					core.PutBatch(b)
					logShardDrained(lg, ctx, i, sent, start)
					return
				}
				n := len(b.Tuples)
				var sendStart time.Time
				if sp != nil {
					sendStart = time.Now()
				}
				select {
				case ch <- b: // ownership moves to the merge
					if sp != nil {
						sp.AddStall(time.Since(sendStart))
					}
					sent += n
				case <-done:
					core.PutBatch(b)
					return
				case <-ctxDone:
					core.PutBatch(b)
					return
				}
			}
		}(i, core.AsBatchCursor(curs[i]), shardDBs[i], ch)
	}
	m := &mergeBatchStream{chans: chans, sp: rootSp}
	// Close stops the producers and reclaims pooled blocks: the ones the
	// merge holds as lane heads and the ones the producers queued or
	// manage to send before observing done. The producers close their
	// channels on exit, which bounds the drain.
	var once sync.Once
	stop := func() {
		once.Do(func() { close(done) })
		m.release()
	}
	nextBatch := m.nextBatch
	if rootSp != nil {
		nextBatch = func(b *core.Batch) bool {
			t0 := time.Now()
			ok := m.nextBatch(b)
			rootSp.AddWall(time.Since(t0))
			if ok {
				rootSp.AddTuples(int64(len(b.Tuples)))
				rootSp.AddBatches(1)
			}
			return ok
		}
	}
	return &StreamCursor{schema: curs[0].Schema(), nextBatch: nextBatch, stop: stop}, nil
}

// logShardDrained emits the per-shard completion record of a producer
// goroutine — request-scoped debug logging, a no-op unless the caller
// attached a logger to the context (obs.WithLogger).
func logShardDrained(lg *slog.Logger, ctx context.Context, shard, tuples int, start time.Time) {
	if lg == nil {
		return
	}
	lg.LogAttrs(ctx, slog.LevelDebug, "shard drained",
		slog.Int("shard", shard),
		slog.Int("tuples", tuples),
		slog.Duration("elapsed", time.Since(start)))
}

// mergeBatchStream k-way merges the shard batch channels — the one
// place shard outputs are merged — advancing over the frontiers of the
// shards' current blocks. Each shard stream is in canonical order and
// the shards' fact sets are disjoint, so the merged sequence is the one
// global canonical order. A linear scan over the lane heads suffices
// for the engine's modest shard counts; the merge touches a channel
// only once per consumed block and emits its output in blocks too, so
// its per-tuple cost is a three-integer compare (core.BatchLess) plus a
// struct copy.
type mergeBatchStream struct {
	chans  []chan *core.Batch
	bs     []*core.Batch // current block per live shard
	is     []int         // read index into bs[i].Tuples
	primed bool
	sp     *obs.Span // nil unless traced: records merge-side channel stall
}

// recv pulls a block from ch, charging time blocked on the receive to
// the merge span's stall counter when traced.
func (m *mergeBatchStream) recv(ch chan *core.Batch) (*core.Batch, bool) {
	if m.sp == nil {
		b, ok := <-ch
		return b, ok
	}
	start := time.Now()
	b, ok := <-ch
	m.sp.AddStall(time.Since(start))
	return b, ok
}

// drop removes lane i after returning its block to the pool.
func (m *mergeBatchStream) drop(i int) {
	last := len(m.chans) - 1
	m.chans[i] = m.chans[last]
	m.bs[i] = m.bs[last]
	m.is[i] = m.is[last]
	m.chans = m.chans[:last]
	m.bs = m.bs[:last]
	m.is = m.is[:last]
}

// release returns every block the stream still owns to the pool after
// the producers have been told to stop: the per-lane head blocks, then
// whatever the producers had buffered on the shard channels (plus the
// few sends that race the shutdown — the drain runs until each producer
// closes its channel, so nothing slips through). Fully drained lanes
// were already dropped and their channels exhausted, so a release after
// a complete drain is a no-op, keeping Close idempotent either way.
func (m *mergeBatchStream) release() {
	for _, b := range m.bs {
		core.PutBatch(b)
	}
	m.bs = nil
	m.is = nil
	for _, ch := range m.chans {
		for b := range ch {
			core.PutBatch(b)
		}
	}
	m.chans = nil
}

// advance refills lane i after its block is consumed; the lane is
// dropped when its channel is closed.
func (m *mergeBatchStream) advance(i int) {
	core.PutBatch(m.bs[i])
	if b, ok := m.recv(m.chans[i]); ok {
		m.bs[i] = b
		m.is[i] = 0
		return
	}
	m.drop(i)
}

func (m *mergeBatchStream) nextBatch(out *core.Batch) bool {
	out.Reset()
	if !m.primed {
		m.primed = true
		live := m.chans[:0]
		for _, ch := range m.chans {
			if b, ok := m.recv(ch); ok {
				live = append(live, ch)
				m.bs = append(m.bs, b)
				m.is = append(m.is, 0)
			}
		}
		m.chans = live
	}
	max := out.Cap() // not cap(out.Tuples): honor the fill-target contract for zero batches
	for len(out.Tuples) < max && len(m.chans) > 0 {
		if len(m.chans) == 1 {
			// Single live lane: bulk-copy its block remainder, columns
			// included when the blocks share a dictionary.
			b, i := m.bs[0], m.is[0]
			n := len(b.Tuples) - i
			if room := max - len(out.Tuples); n > room {
				n = room
			}
			out.AppendRange(b, i, i+n)
			m.is[0] = i + n
			if m.is[0] == len(b.Tuples) {
				m.advance(0)
			}
			continue
		}
		best := 0
		for i := 1; i < len(m.chans); i++ {
			if core.BatchLess(m.bs[i], m.is[i], m.bs[best], m.is[best]) {
				best = i
			}
		}
		out.AppendRange(m.bs[best], m.is[best], m.is[best]+1)
		if m.is[best]++; m.is[best] == len(m.bs[best].Tuples) {
			m.advance(best)
		}
	}
	return len(out.Tuples) > 0
}

// EvalCursor evaluates the query through the streaming plan and
// materializes only the final result — what tpset.Eval, cmd/tpquery and
// Apply return.
func (e *Engine) EvalCursor(n query.Node, db map[string]*relation.Relation, opts core.Options) (*relation.Relation, error) {
	return e.EvalCursorCtx(context.Background(), n, db, opts)
}

// EvalCursorCtx is EvalCursor with a request context — cancellation
// stops the shard producers early (the result is then truncated, so
// callers must check ctx.Err before trusting or caching it), and a
// context logger/request ID flows into the engine's debug records.
func (e *Engine) EvalCursorCtx(ctx context.Context, n query.Node, db map[string]*relation.Relation, opts core.Options) (*relation.Relation, error) {
	c, err := e.CursorCtx(ctx, n, db, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return core.Materialize(c), nil
}
