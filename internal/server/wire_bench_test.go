package server

import (
	"context"
	"runtime"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// drainedBatches evaluates q over the Table III overlap-0.8 pair at n
// tuples per relation, through the path the stream handler drains
// (catalog admission, then engine.CursorCtx at the stream's batch
// size), and returns the batches it produced and their tuple count.
func drainedBatches(tb testing.TB, q string, n int) ([]*core.Batch, int) {
	tb.Helper()
	r, s := datagen.Pair(datagen.PairConfig{
		NumTuples: n, NumFacts: n / 100, MaxLenR: 10, MaxLenS: 10, MaxGap: 3, Seed: 1,
	})
	srv := New(Config{})
	for name, rel := range map[string]*relation.Relation{"r": r, "s": s} {
		if _, err := srv.Load(name, rel); err != nil {
			tb.Fatal(err)
		}
	}
	pq, err := srv.prepare(QueryRequest{Query: q})
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := engine.New(engine.Config{Workers: 1}).
		CursorCtx(context.Background(), pq.optimized, pq.db, engineOptions(QueryRequest{}))
	if err != nil {
		tb.Fatal(err)
	}
	defer cur.Close()
	var batches []*core.Batch
	tuples := 0
	for b := core.NewBatch(streamBatchTuples); cur.NextBatch(b); b = core.NewBatch(streamBatchTuples) {
		batches = append(batches, b)
		tuples += len(b.Tuples)
	}
	if tuples == 0 {
		tb.Fatalf("%s produced no tuples", query.Canonical(pq.optimized))
	}
	return batches, tuples
}

// BenchmarkStreamEncode is the encode layer of /query/stream on its
// own: Table III overlap 0.8, r | s at 20K tuples per relation, drained
// once, then only the per-batch encode of the stream handler is timed.
func BenchmarkStreamEncode(b *testing.B) {
	batches, tuples := drainedBatches(b, "r | s", 20000)
	enc := getWireEncoder()
	defer enc.release()
	encodeAll := func() {
		for _, batch := range batches {
			enc.buf = enc.buf[:0]
			if _, err := enc.batchLines(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	encodeAll() // warm the buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeAll()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	encoded := float64(b.N) * float64(tuples)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/encoded, "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/encoded, "B/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/encoded, "allocs/tuple")
}

// TestStreamEncodeDoesNotAllocate pins the steady state of the stream's
// write path: with a warmed buffer, encoding a batch allocates nothing —
// no rendered lineage string, no marginals map, no reflection scratch.
func TestStreamEncodeDoesNotAllocate(t *testing.T) {
	batches, _ := drainedBatches(t, "(r | s) - (r & s)", 2000)
	enc := getWireEncoder()
	defer enc.release()
	encodeAll := func() {
		for _, b := range batches {
			enc.buf = enc.buf[:0]
			if _, err := enc.batchLines(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeAll() // warm buf, lam and vps
	if allocs := testing.AllocsPerRun(10, encodeAll); allocs != 0 {
		t.Fatalf("%v allocations per run encoding %d warmed batches, want 0", allocs, len(batches))
	}
}
