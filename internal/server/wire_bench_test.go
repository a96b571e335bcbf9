package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/query"
)

// drainedBatches evaluates q over a pair of the Table III overlap-0.8
// shape, n tuples per relation generated from seed, through the path
// the stream handler drains, and returns the batches it produced and
// their tuple count. The pair is admitted as tpserve -rel admits it: a
// CSV file in generation order (the facts round-robin), read by
// csvio.ReadFile, then catalog admission; and it is drained at the
// stream's cadence, in core.BatchSize blocks. The pair's
// base tuples are named prefix+"r<i>" and prefix+"s<i>": the
// marginal-text table is process-wide and keyed by variable, so a
// caller that measures or counts what it holds names its own, and a
// caller whose names are fresh gets them numbered as a fresh server
// numbers them.
func drainedBatches(tb testing.TB, q, prefix string, n int, seed int64) ([]*core.Batch, int) {
	tb.Helper()
	srv := New(Config{})
	for i, name := range []string{"r", "s"} {
		// The generator interns its own names; the file carries the
		// caller's, so csvio is the first to see them.
		gen := datagen.Synthetic(datagen.SyntheticConfig{
			Name: "gen." + prefix + name, NumTuples: n, NumFacts: n / 100, MaxLen: 10, MaxGap: 3, Seed: seed + int64(i),
		})
		var csv bytes.Buffer
		csv.WriteString("Fact,lineage,ts,te,p\n")
		for j, t := range gen.Tuples {
			fmt.Fprintf(&csv, "%s,%s%s%d,%d,%d,%s\n", t.Fact[0], prefix, name, j, t.T.Ts, t.T.Te,
				strconv.FormatFloat(t.Prob, 'g', -1, 64))
		}
		path := filepath.Join(tb.TempDir(), name+".csv")
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			tb.Fatal(err)
		}
		rel, err := csvio.ReadFile(path, name)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.Load(name, rel); err != nil {
			tb.Fatal(err)
		}
	}
	req := QueryRequest{Query: q, Workers: 1}
	pq, err := srv.prepare(req)
	if err != nil {
		tb.Fatal(err)
	}
	var batches []*core.Batch
	tuples := 0
	if err := srv.evaluate(context.Background(), req, pq, func(cur *engine.StreamCursor) error {
		for b := core.NewBatch(core.BatchSize); cur.NextBatch(b); b = core.NewBatch(core.BatchSize) {
			batches = append(batches, b)
			tuples += len(b.Tuples)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	if tuples == 0 {
		tb.Fatalf("%s produced no tuples", query.Canonical(pq.optimized))
	}
	return batches, tuples
}

// BenchmarkStreamEncode is the encode layer of /query/stream on its
// own: Table III overlap 0.8, r | s at 20K tuples per relation, drained
// once, then only the per-batch encode of the stream handler is timed.
// warm is the steady state of a server: every base tuple's marginal was
// rendered by an earlier response and is appended from the marginal-text
// table. cold is the cost without it, made repeatable: the same
// variables under other marginals, so every lookup finds its slot taken
// by a text for different bits and the marginal is formatted as before.
// floats/tuple counts appendJSONFloat calls per output row (the row's
// own p unless it is a base tuple's, plus the marginals not served).
func BenchmarkStreamEncode(b *testing.B) {
	warm, tuples := drainedBatches(b, "r | s", "benc.", 20000, 1)
	cold, coldTuples := drainedBatches(b, "r | s", "benc.", 20000, 3)
	enc := getWireEncoder()
	defer enc.release()
	encodeAll := func(batches []*core.Batch) {
		for _, batch := range batches {
			enc.reset()
			if _, err := enc.batchLines(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	encodeAll(warm) // claims the slots, and warms the buffers
	encodeAll(cold)
	for _, c := range []struct {
		name    string
		batches []*core.Batch
		tuples  int
	}{{"cold", cold, coldTuples}, {"warm", warm, tuples}} {
		formulas := 0 // rows whose p is not a base tuple's marginal
		for _, batch := range c.batches {
			for i := range batch.Tuples {
				if t := &batch.Tuples[i]; t.Lineage.Kind() != lineage.KindVar || t.Prob != t.Lineage.VarProb() {
					formulas++
				}
			}
		}
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			texts := lineage.ReadMarginalTextStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeAll(c.batches)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			formatted := lineage.ReadMarginalTextStats().Misses - texts.Misses + uint64(b.N*formulas)
			encoded := float64(b.N) * float64(c.tuples)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/encoded, "ns/tuple")
			b.ReportMetric(float64(formatted)/encoded, "floats/tuple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/encoded, "B/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/encoded, "allocs/tuple")
		})
	}
}

// TestStreamEncodeDoesNotAllocate pins the steady state of the stream's
// write path: with a warmed buffer, encoding a batch allocates nothing —
// no rendered lineage string, no marginals map, no reflection scratch.
func TestStreamEncodeDoesNotAllocate(t *testing.T) {
	batches, _ := drainedBatches(t, "(r | s) - (r & s)", "", 2000, 1)
	enc := getWireEncoder()
	defer enc.release()
	encodeAll := func() {
		for _, b := range batches {
			enc.reset()
			if _, err := enc.batchLines(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeAll() // warm buf, head and vps
	if allocs := testing.AllocsPerRun(10, encodeAll); allocs != 0 {
		t.Fatalf("%v allocations per run encoding %d warmed batches, want 0", allocs, len(batches))
	}
}

// BenchmarkQuery is POST /query through the handler on the shape of the
// standing benchmark's durable-mixed queries: p0 - p1 over two relations
// of 20K tuples on 200 facts (Table III overlap 0.8 shape), a result of
// ≈40K rows. miss evaluates and encodes every time (noCache); hit writes
// the cached body. Both discard the response.
func BenchmarkQuery(b *testing.B) {
	srv := New(Config{Workers: 1})
	for i, name := range []string{"p0", "p1"} {
		rel := datagen.Synthetic(datagen.SyntheticConfig{
			Name: name, NumTuples: 20000, NumFacts: 200, MaxLen: 10, MaxGap: 3, Seed: 7 + int64(i),
		})
		if _, err := srv.Load(name, rel); err != nil {
			b.Fatal(err)
		}
	}
	h := srv.Handler()
	for _, tc := range []struct{ name, body string }{
		{"miss", `{"query":"p0 - p1","noCache":true}`},
		{"hit", `{"query":"p0 - p1"}`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			req := httptest.NewRequest(http.MethodPost, "/query", nil)
			serve := func() {
				clear(w.h)
				w.n = 0
				req.Body = io.NopCloser(strings.NewReader(tc.body))
				h.ServeHTTP(w, req)
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.SetBytes(int64(w.n))
		})
	}
}
