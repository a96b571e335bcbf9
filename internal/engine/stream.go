package engine

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// Streaming (cursor-plan) execution — the engine's one execution path.
// The engine composes with the cursor layer by cutting the sorted *leaf*
// relations once, at fact boundaries, into zero-copy fact-range views
// (cut) and evaluating the whole query tree per shard as an independent
// streaming cursor plan: every TP set operation and selection is
// per-fact, so the query restricted to one fact range equals the
// restriction of the query's result to those facts. Dictionary ids are
// ranks of the sorted key set, so ascending id ranges are ascending
// fact ranges: shard outputs are disjoint and ordered, and concatenating
// them in shard order (concatStream) is the global canonical order. A
// Workers-sized pool claims the shards in index order and feeds one
// bounded channel of blocks per shard (see reorderBlocks).
//
// Memory: each shard plan is O(tree depth) and its leaves alias the
// caller's relations; nothing is O(input) for catalog relations.
// Anything else is prepared once (core.PrepareLeaves: a private copy
// where a leaf needs binding or sorting, shared dictionary, sort unless
// AssumeSorted, fid column) and then cut the same way. A plan whose
// sweep can read too few rows to fill two shards (shardCount) runs the
// purely sequential plan.

// reorderBlocks is the plan-wide reorder window, in blocks, split evenly
// over the shard channels of the producers that can run at once. Shard
// outputs leave in shard order, so a producer ahead of the consumer can
// only buffer: once its channel is full it parks, and on an output-heavy
// plan the pool degenerates to "current shard's producer ‖ consumer". The
// window is what lets the other Workers−1 producers keep sweeping — with
// 4 shards per worker a producer never parks while the result is under
// 4 × reorderBlocks blocks (~half a million tuples) — and it bounds the
// tuples in flight to (reorderBlocks + Workers) × core.BatchSize whatever
// the worker budget. (Measured at PR 15 on lib-setops, 377K result tuples
// at two workers: 2 blocks per shard 2.0 ops/s, 32 blocks 2.7, 64 blocks
// 2.9; the hash-partition + merge plan this replaced: 2.4. Historical:
// the consumer behind those figures regrew its result array, which
// core.Materialize no longer does — they rank the window sizes, the
// rates themselves are superseded. Change the constant only on a paired
// run of the standing benchmark.)
const reorderBlocks = 128

// StreamCursor is a core.Cursor over a whole query tree, evaluated
// sequentially or shard-parallel. Callers that do not drain it must
// Close it to release the shard goroutines; Close is idempotent and safe
// after full drains too.
type StreamCursor struct {
	schema    relation.Schema
	nextBatch func(*core.Batch) bool
	stop      func()
}

// Schema returns the plan's output schema.
func (c *StreamCursor) Schema() relation.Schema { return c.schema }

// NextBatch fills b with the next block of result tuples in canonical
// (fact, Ts, Te) order: Materialize, the NDJSON stream and tpquery
// -stream drain engine plans with it.
func (c *StreamCursor) NextBatch(b *core.Batch) bool {
	return c.nextBatch(b)
}

// Close releases the plan's resources: shard producer goroutines and —
// on a partially drained plan — every pooled block still in flight
// (operator buffers, the concatenation's current block, and blocks the
// producers had queued on the shard channels). After Close, NextBatch
// must not be called again.
func (c *StreamCursor) Close() {
	if c.stop != nil {
		c.stop()
	}
}

// Cursor compiles the query into a streaming plan over db. With a plan
// whose sweep can read enough rows to shard (shardCount) and a worker
// budget above one, the plan
// evaluates fact-range shards of the query concurrently and concatenates
// their ordered outputs; otherwise it is the sequential cursor plan.
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
// through query.BuildCursor as usual; the sharded plan labels it as the
// concat node (its wall time includes the cut), hangs one per-shard plan
// subtree under it (each a full traced cursor tree over that shard's
// views) and additionally records channel-stall time — producer time
// blocked on a full shard channel, consumer time blocked waiting for the
// current shard's next block.
func (e *Engine) CursorCtx(ctx context.Context, n query.Node, db map[string]*relation.Relation, opts core.Options) (*StreamCursor, error) {
	// Discharged once per plan, before the cut: every leaf comes back
	// sorted, bound to the plan's one dictionary and carrying its fid
	// column (catalog relations and bound, ordered leaves as they are,
	// anything else as a private copy), so every input shards the same
	// way.
	db, err := query.PrepareLeaves(n, db, opts, e.cfg.workers())
	if err != nil {
		return nil, err
	}
	cutStart := time.Now()
	shards := e.cut(n, db)
	if len(shards) < 2 {
		c, err := query.BuildPrepared(n, db, opts)
		if err != nil {
			return nil, err
		}
		// The sharded plan observes cancellation for free — its
		// producers select on ctx.Done — but the sequential plan runs
		// entirely on the caller's goroutine and would otherwise sweep to
		// completion after the deadline fired. A batch is already an
		// amortization unit, so check once per block.
		return &StreamCursor{
			schema:    c.Schema(),
			nextBatch: func(b *core.Batch) bool { return ctx.Err() == nil && c.NextBatch(b) },
			// Close on an abandoned sequential plan releases the pooled
			// blocks its operator buffers still hold.
			stop: func() { core.ReleaseCursor(c) },
		}, nil
	}

	// Build every shard plan up front so plan errors surface synchronously.
	// With tracing on, the request's span becomes the concat node and each
	// shard plan records into its own subtree beneath it.
	rootSp := opts.Span
	curs := make([]core.Cursor, len(shards))
	spans := make([]*obs.Span, len(shards))
	for i, sdb := range shards {
		shardOpts := opts
		if rootSp != nil {
			spans[i] = rootSp.NewChild("")
			shardOpts.Span = spans[i]
		}
		if curs[i], err = query.BuildPrepared(n, sdb, shardOpts); err != nil {
			return nil, err
		}
		if rootSp != nil {
			spans[i].PrefixOp(fmt.Sprintf("shard%d: ", i))
		}
	}
	if rootSp != nil {
		rootSp.SetOp(fmt.Sprintf("concat[%d shards]", len(shards)))
		rootSp.AddWall(time.Since(cutStart))
	}

	// A Workers-sized pool claims the shards in index order. The consumer
	// only ever waits on the lowest unfinished shard, which is always
	// claimed first, so a producer parked on the full channel of a later
	// shard can never starve it. Every shard is claimed and its channel
	// closed even after done fires (produce returns at once), which is
	// what bounds Close's channel drain.
	done := make(chan struct{})
	chans := make([]chan *core.Batch, len(shards))
	workers := min(e.cfg.workers(), len(shards))
	for i := range chans {
		chans[i] = make(chan *core.Batch, max(2, reorderBlocks/workers))
	}
	var claimed atomic.Int32
	var producers sync.WaitGroup
	// A panic in operator code on a producer is recorded here, the shard's
	// channel closes as usual, the other producers stop at their next
	// block, and the consumer re-raises it at the first channel it finds
	// closed: the caller's goroutine is where its recover, if any, lives.
	relay := new(core.PanicRelay)
	for w := workers; w > 0; w-- {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for {
				i := int(claimed.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				produce(ctx, done, i, curs[i], shards[i], chans[i], spans[i], relay)
			}
		}()
	}
	cs := &concatStream{chans: chans, sp: rootSp, relay: relay}
	// Close stops the producers, reclaims pooled blocks — the one the
	// concatenation holds and the ones the producers queued or manage to
	// send before observing done — and returns once the pool has exited.
	var once sync.Once
	stop := func() {
		once.Do(func() { close(done) })
		cs.release()
		producers.Wait()
	}
	// Like the sequential plan, stop delivering once the request is
	// cancelled: the producers stop on their own, but the reorder window
	// may hold a good part of the result by then.
	nextBatch := func(b *core.Batch) bool { return ctx.Err() == nil && cs.nextBatch(b) }
	if rootSp != nil {
		pull := nextBatch
		nextBatch = func(b *core.Batch) bool {
			t0 := time.Now()
			if !pull(b) {
				rootSp.Pull(t0, 0)
				return false
			}
			rootSp.Pull(t0, len(b.Tuples))
			return true
		}
	}
	return &StreamCursor{schema: curs[0].Schema(), nextBatch: nextBatch, stop: stop}, nil
}

// produce drains shard i's plan into ch: pooled blocks of up to
// core.BatchSize tuples, one channel operation (and at most one goroutine
// wakeup) per block, ownership moving to the consumer with the send. It
// returns when the plan is drained, the stream is closed (done), the
// request is cancelled or a shard plan panics — this one (recorded on
// relay for the consumer to re-raise) or any other — and always closes ch.
func produce(ctx context.Context, done <-chan struct{}, i int, c core.Cursor, sdb map[string]*relation.Relation, ch chan<- *core.Batch, sp *obs.Span, relay *core.PanicRelay) {
	defer close(ch)
	// Runs after the two below, so it also catches a teardown that panics
	// over a half-swept plan, and before close(ch): the consumer that
	// observes the close observes the recorded panic.
	defer relay.Capture()
	// On every exit — drained, cancelled, closed, panicking — tear the
	// shard plan down so operator-buffered pooled blocks go back.
	// Registered after close(ch), so it runs before it: Close's channel
	// drain observing the close also sees the plan fully released.
	defer core.ReleaseCursor(c)
	// produce holds exactly one block at any time: a send hands it to the
	// consumer and takes a fresh one, and whichever is in hand on the way
	// out — drained, stopped or panicking — goes back to the pool.
	b := core.GetBatch()
	defer func() { core.PutBatch(b) }()
	ctxDone := ctx.Done() // nil without a cancellable ctx: select case never fires
	start := time.Now()
	sent := 0
	for {
		// Bail out before the next fill: once the consumer closes the
		// stream, a select between an enabled send and a closed done
		// channel picks randomly, so without this check a producer could
		// keep winning the send race against Close's channel drain and
		// sweep the rest of its shard for nothing.
		select {
		case <-done:
			return
		case <-ctxDone:
			return
		default:
		}
		if relay.Caught() {
			return
		}
		if !c.NextBatch(b) {
			logShardDrained(ctx, i, sdb, sent, start)
			return
		}
		n := len(b.Tuples)
		var sendStart time.Time
		if sp != nil {
			sendStart = time.Now()
		}
		select {
		case ch <- b: // ownership moves to the consumer
			if sp != nil {
				sp.AddStall(time.Since(sendStart))
			}
			sent += n
			b = core.GetBatch()
		case <-done:
			return
		case <-ctxDone:
			return
		}
	}
}

// logShardDrained emits the per-shard completion record of a producer —
// request-scoped debug logging, a no-op unless the caller attached a
// logger to the context (obs.WithLogger).
func logShardDrained(ctx context.Context, shard int, sdb map[string]*relation.Relation, tuples int, start time.Time) {
	lg := obs.Logger(ctx)
	if lg == nil {
		return
	}
	rows := 0
	for _, v := range sdb {
		rows += v.Len()
	}
	lg.LogAttrs(ctx, slog.LevelDebug, "shard drained",
		slog.Int("shard", shard),
		slog.Int("rows", rows),
		slog.Int("tuples", tuples),
		slog.Duration("elapsed", time.Since(start)))
}

// concatStream concatenates the shard block channels in shard order —
// the one place shard outputs are joined. Each shard stream is in
// canonical order and shard i's facts all precede shard i+1's, so
// draining the channels one after the other is the global canonical
// order, with no compare. A consumer block of the producers' capacity
// (core.BatchSize: every pooled block) takes each shard block whole, by
// swapping storage with it — no row is copied, and a shard's last block
// reaches the consumer as short as the producer left it; a block of any
// other capacity is filled by bulk copies, across block and shard
// boundaries.
type concatStream struct {
	chans []chan *core.Batch // shards not yet exhausted, current first
	cur   *core.Batch        // current block of chans[0], nil between blocks
	i     int                // read index into cur.Tuples
	sp    *obs.Span          // nil unless traced: records consumer-side channel stall
	relay *core.PanicRelay   // a producer's panic, re-raised when a channel closes
}

// recv pulls the current shard's next block, charging time blocked on
// the receive to the concat span's stall counter when traced.
func (s *concatStream) recv() (*core.Batch, bool) {
	if s.sp == nil {
		b, ok := <-s.chans[0]
		return b, ok
	}
	start := time.Now()
	b, ok := <-s.chans[0]
	s.sp.AddStall(time.Since(start))
	return b, ok
}

// release returns every block the stream still owns to the pool after
// the producers have been told to stop: the current block, then whatever
// the producers had buffered on the shard channels (plus the few sends
// that race the shutdown — the drain runs until every channel is closed,
// so nothing slips through). After a complete drain there is nothing
// left to release, keeping Close idempotent either way.
func (s *concatStream) release() {
	if s.cur != nil {
		core.PutBatch(s.cur)
		s.cur = nil
	}
	for _, ch := range s.chans {
		for b := range ch {
			core.PutBatch(b)
		}
	}
	s.chans = nil
}

func (s *concatStream) nextBatch(out *core.Batch) bool {
	out.Reset()
	max := out.Cap() // not cap(out.Tuples): honor the fill-target contract for zero batches
	for len(out.Tuples) < max && len(s.chans) > 0 {
		if s.cur == nil {
			b, ok := s.recv()
			if !ok {
				s.relay.Reraise() // the shard ended: drained, or a producer panicked
				s.chans = s.chans[1:]
				continue
			}
			if len(out.Tuples) == 0 && b.Cap() == max {
				// The whole block is the consumer's: out takes its rows and
				// storage, b takes out's empty storage back to the pool.
				*out, *b = *b, *out
				core.PutBatch(b)
				return true
			}
			s.cur, s.i = b, 0
		}
		n := min(len(s.cur.Tuples)-s.i, max-len(out.Tuples))
		out.AppendRange(s.cur, s.i, s.i+n)
		if s.i += n; s.i == len(s.cur.Tuples) {
			core.PutBatch(s.cur)
			s.cur = nil
		}
	}
	return len(out.Tuples) > 0
}

// EvalCursor evaluates the query through the streaming plan and
// materializes only the final result — what tpset.Eval, cmd/tpquery and
// Apply return. The result's tuple array is allocated once, at its exact
// length (core.Materialize).
func (e *Engine) EvalCursor(n query.Node, db map[string]*relation.Relation, opts core.Options) (*relation.Relation, error) {
	return e.EvalCursorCtx(context.Background(), n, db, opts)
}

// EvalCursorCtx is EvalCursor with a request context — cancellation
// stops the shard producers early (the result is then truncated, so
// callers must check ctx.Err before trusting or caching it), and a
// context logger/request ID flows into the engine's debug records. A
// panic on a shard producer is re-raised here, on the caller's
// goroutine, after the plan has been closed.
func (e *Engine) EvalCursorCtx(ctx context.Context, n query.Node, db map[string]*relation.Relation, opts core.Options) (*relation.Relation, error) {
	c, err := e.CursorCtx(ctx, n, db, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return core.Materialize(c), nil
}
