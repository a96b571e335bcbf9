package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockEvals installs the evaluation hook that parks every admitted
// query until release is closed (or its context fires), restoring the
// hook on cleanup.
func blockEvals(t *testing.T) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	testHookEvalStart = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testHookEvalStart = nil })
	return release
}

// The admission gate under overload: with every evaluation slot held
// and the wait queue full, further queries are shed with 429 +
// Retry-After within the latency budget, /healthz and catalog
// mutations stay responsive, and once the holders finish the gate
// accounting returns to zero with no goroutine left behind. Run under
// -race this is also the locking stress for the gate itself.
func TestOverloadShedsFastAndRecovers(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	srv, ts := newGovTestServer(t, Config{Workers: 1, MaxConcurrent: 2, MaxQueued: 1})
	release := blockEvals(t)

	const holders = 3 // 2 slots + 1 queue position
	statuses := make(chan int, holders)
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"query":"r | s","noCache":true}`))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitFor(t, "gate saturation", func() bool {
		return srv.gate.inflight() == 2 && srv.gate.queuedNow() == 1
	})

	// Overflow is shed, fast, with the retry hint, on every verb the
	// gate covers.
	for _, path := range []string{"/query", "/query/explain"} {
		for i := 0; i < 5; i++ {
			start := time.Now()
			resp, body := do(t, "POST", ts.URL+path, QueryRequest{Query: "r | s", NoCache: true})
			if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
				t.Errorf("%s shed %d took %v; want < 100ms", path, i, elapsed)
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("%s shed %d: status %d, body %s", path, i, resp.StatusCode, body)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("%s shed %d: Retry-After = %q, want \"1\"", path, i, ra)
			}
			if !strings.Contains(string(body), "capacity") {
				t.Fatalf("%s shed %d: body %s", path, i, body)
			}
		}
	}

	// The control plane is not behind the gate: health answers fast and
	// catalog replacements land while every slot is held.
	start := time.Now()
	if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("healthz under overload: %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("healthz under overload took %v; want < 100ms", elapsed)
	}
	govSeed(t, srv, "s", 99)

	close(release)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("held query finished with status %d", st)
		}
	}
	waitFor(t, "gate drained", func() bool {
		return srv.gate.inflight() == 0 && srv.gate.queuedNow() == 0
	})
	if got := srv.snapshotMetrics().QueriesShed; got < 10 {
		t.Fatalf("QueriesShed = %d, want >= 10", got)
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= baseGoroutines+4
	})
}

// Deadlines: a server-wide QueryTimeout answers 504 and counts, a
// request's timeoutMillis works without a server default, and a
// request can tighten but never exceed the server bound.
func TestQueryDeadlines(t *testing.T) {
	t.Run("server timeout", func(t *testing.T) {
		srv, ts := newGovTestServer(t, Config{Workers: 1, QueryTimeout: 30 * time.Millisecond})
		blockEvals(t) // parks until the deadline fires
		for i, path := range []string{"/query", "/query/explain"} {
			resp, body := do(t, "POST", ts.URL+path, QueryRequest{Query: "r | s", NoCache: true})
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "deadline") {
				t.Fatalf("%s: body %s", path, body)
			}
			if got := srv.snapshotMetrics().QueriesTimedOut; got != uint64(i+1) {
				t.Fatalf("%s: QueriesTimedOut = %d after %d 504s", path, got, i+1)
			}
		}
	})
	t.Run("request timeout", func(t *testing.T) {
		_, ts := newGovTestServer(t, Config{Workers: 1})
		blockEvals(t)
		resp, body := do(t, "POST", ts.URL+"/query",
			QueryRequest{Query: "r | s", NoCache: true, TimeoutMillis: 30})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
	})
	t.Run("request cannot exceed server cap", func(t *testing.T) {
		_, ts := newGovTestServer(t, Config{Workers: 1, QueryTimeout: 30 * time.Millisecond})
		blockEvals(t)
		start := time.Now()
		resp, _ := do(t, "POST", ts.URL+"/query",
			QueryRequest{Query: "r | s", NoCache: true, TimeoutMillis: 60_000})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("server cap did not apply: took %v", elapsed)
		}
	})
	t.Run("negative timeout rejected", func(t *testing.T) {
		_, ts := newGovTestServer(t, Config{Workers: 1})
		resp, body := do(t, "POST", ts.URL+"/query",
			QueryRequest{Query: "r | s", TimeoutMillis: -1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
	})
	t.Run("stream deadline ends in error trailer", func(t *testing.T) {
		_, ts := newGovTestServer(t, Config{Workers: 1})
		blockEvals(t)
		resp, body := do(t, "POST", ts.URL+"/query/stream",
			QueryRequest{Query: "r | s", TimeoutMillis: 30})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (stream failures report via the trailer)", resp.StatusCode)
		}
		trailer := lastTrailer(t, body)
		if trailer.Done || !strings.Contains(trailer.Error, "deadline") {
			t.Fatalf("trailer = %+v; want done=false with a deadline error", trailer)
		}
	})
}

// The result budget: a query whose output exceeds MaxResultTuples is a
// clean client error on the materialized path and a valid NDJSON abort
// on the stream path — never a silent truncation.
func TestResultBudget(t *testing.T) {
	srv, ts := newGovTestServer(t, Config{Workers: 1, MaxResultTuples: 100})

	resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "r", NoCache: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "maxResultTuples") {
		t.Fatalf("body %s", body)
	}
	// With the cache on the overflow is refused the same way and never
	// stored.
	if resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "r"}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cached path: status %d, body %s", resp.StatusCode, body)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache %+v after an over-budget result; want it empty", st)
	}

	resp, body = do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "r"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	tuples, trailer := parseStream(t, body)
	if tuples > 100 {
		t.Fatalf("stream shipped %d tuples past a 100-tuple budget", tuples)
	}
	if trailer.Done || !strings.Contains(trailer.Error, "maxResultTuples") {
		t.Fatalf("trailer = %+v; want done=false with a budget error", trailer)
	}

	// Within budget everything behaves as before.
	tiny := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "tiny", NumTuples: 10, NumFacts: 2, MaxLen: 4, MaxGap: 2, Seed: 3,
	})
	if _, err := srv.Load("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	if resp, body := do(t, "POST", ts.URL+"/query",
		QueryRequest{Query: "tiny", NoCache: true}); resp.StatusCode != 200 {
		t.Fatalf("in-budget query: status %d, body %s", resp.StatusCode, body)
	}
	// A result of exactly the budget is served whole.
	exact := relation.New(relation.NewSchema("exact", "F"))
	for i := 0; i < 100; i++ {
		exact.AddBase(relation.NewFact(fmt.Sprintf("f%03d", i)), fmt.Sprintf("budget.e%d", i), 0, 5, 0.5)
	}
	if _, err := srv.Load("exact", exact); err != nil {
		t.Fatal(err)
	}
	if qr := queryOnce(t, ts, QueryRequest{Query: "exact"}); len(qr.Result.Tuples) != 100 {
		t.Fatalf("a result of exactly the budget came back with %d tuples", len(qr.Result.Tuples))
	}
	if got := srv.snapshotMetrics().Evaluations; got == 0 {
		t.Fatal("no evaluation recorded for the in-budget query")
	}
}

// A panic during evaluation costs its request a 500, not the process:
// the next request is served normally and the counter records it.
func TestPanicRecoveryMaterialized(t *testing.T) {
	srv, ts := newGovTestServer(t, Config{Workers: 1})
	t.Cleanup(func() { testHookEvalStart = nil })
	for i, path := range []string{"/query", "/query/explain"} {
		testHookEvalStart = func(context.Context) { panic("kaboom") }
		resp, body := do(t, "POST", ts.URL+path, QueryRequest{Query: "r | s", NoCache: true})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "internal error") {
			t.Fatalf("%s: body %s", path, body)
		}
		testHookEvalStart = nil
		if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != 200 {
			t.Fatalf("server dead after recovered panic: %d", resp.StatusCode)
		}
		if resp, _ := do(t, "POST", ts.URL+path,
			QueryRequest{Query: "r | s", NoCache: true}); resp.StatusCode != 200 {
			t.Fatalf("%s after recovered panic: %d", path, resp.StatusCode)
		}
		if got := srv.snapshotMetrics().PanicsRecovered; got != uint64(i+1) {
			t.Fatalf("%s: PanicsRecovered = %d, want %d", path, got, i+1)
		}
	}
}

// A panic after streaming started cannot un-send the 200 — but it must
// still terminate the stream as valid NDJSON: every line parses, and
// the last one is an error trailer, not a severed connection.
func TestPanicRecoveryMidStream(t *testing.T) {
	srv, ts := newGovTestServer(t, Config{Workers: 1})
	testHookStreamBatch = func(shipped int, _ *core.Batch) {
		if shipped > 0 {
			panic("mid-stream kaboom")
		}
	}
	t.Cleanup(func() { testHookStreamBatch = nil })

	resp, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "r"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	tuples, trailer := parseStream(t, body)
	if tuples == 0 {
		t.Fatal("panic fired before any tuple shipped; the hook should allow the first batch")
	}
	if trailer.Done || !strings.Contains(trailer.Error, "panicked") {
		t.Fatalf("trailer = %+v; want done=false with a panic error", trailer)
	}
	// Like every other abort, the trailer accounts what was shipped.
	if trailer.Tuples != tuples || trailer.ElapsedMicros <= 0 {
		t.Fatalf("trailer = %+v; want tuples = the %d lines received and a non-zero elapsed time", trailer, tuples)
	}
	if got := srv.snapshotMetrics().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}

// shardLogBomb is a log handler that panics on the engine's per-shard
// debug record while armed. That record is written by the shard
// producer, so the panic is raised on a goroutine the request's own
// recover does not cover — from outside the engine, with no hook in it.
type shardLogBomb struct{ armed *atomic.Bool }

func (h shardLogBomb) Enabled(context.Context, slog.Level) bool { return true }
func (h shardLogBomb) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h shardLogBomb) WithGroup(string) slog.Handler            { return h }
func (h shardLogBomb) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "shard drained" && h.armed.Load() {
		panic("kaboom on a shard producer")
	}
	return nil
}

// The promise of TestPanicRecoveryMaterialized and ...MidStream holds on
// a sharded plan too: a panic on a shard producer's goroutine is relayed
// to the request's goroutine, where it costs a 500 (or, mid-stream, a
// done:false trailer) — not the process — and leaves no producer behind.
func TestPanicRecoveryOnShardProducer(t *testing.T) {
	var armed atomic.Bool
	srv := New(Config{Workers: 2, Logger: slog.New(shardLogBomb{&armed})})
	for i, name := range []string{"r", "s"} {
		rel := datagen.Synthetic(datagen.SyntheticConfig{
			Name: name, NumTuples: 6000, NumFacts: 120, MaxLen: 4, MaxGap: 2, Seed: int64(i + 1),
		})
		if _, err := srv.Load(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := do(t, "POST", ts.URL+"/query/explain", QueryRequest{Query: "r | s"})
	if resp.StatusCode != 200 || !strings.Contains(string(body), "concat[") {
		t.Fatalf("the catalog does not shard: status %d, body %s", resp.StatusCode, body)
	}
	base := runtime.NumGoroutine()
	armed.Store(true)

	resp, body = do(t, "POST", ts.URL+"/query", QueryRequest{Query: "r | s", NoCache: true})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "internal error") {
		t.Fatalf("POST /query: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("server dead after a producer panic: %d", resp.StatusCode)
	}
	if got := srv.snapshotMetrics().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d after POST /query, want 1", got)
	}

	resp, body = do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "r | s"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query/stream: status %d", resp.StatusCode)
	}
	if _, trailer := parseStream(t, body); trailer.Done || !strings.Contains(trailer.Error, "panicked") {
		t.Fatalf("trailer = %+v; want done=false with a panic error", trailer)
	}
	if got := srv.snapshotMetrics().PanicsRecovered; got != 2 {
		t.Fatalf("PanicsRecovered = %d after POST /query/stream, want 2", got)
	}

	armed.Store(false)
	waitFor(t, "the shard producers of the failed requests to exit", func() bool {
		return runtime.NumGoroutine() <= base+2 // idle keep-alive connections come and go
	})
	if resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "r | s", NoCache: true}); resp.StatusCode != 200 {
		t.Fatalf("query after the recovered panics: status %d, body %s", resp.StatusCode, body)
	}
}

// The robustness instruments are exposed in both formats: the JSON
// field names the ops tooling keys on, and well-formed Prometheus
// families on the text exposition.
func TestRobustnessMetricsExposition(t *testing.T) {
	_, ts := newGovTestServer(t, Config{Workers: 1})

	_, body := do(t, "GET", ts.URL+"/metrics", nil)
	for _, field := range []string{
		`"panicsRecovered":0`, `"queriesTimedOut":0`, `"queriesShed":0`,
		`"walWriteErrors":0`, `"degraded":false`,
		`"queriesInflight":0`, `"queriesQueued":0`,
	} {
		if !strings.Contains(string(body), field) {
			t.Errorf("JSON metrics missing %s", field)
		}
	}

	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, line := range []string{
		"# TYPE tpset_panics_recovered_total counter",
		"tpset_panics_recovered_total 0",
		"# TYPE tpset_queries_timed_out_total counter",
		"tpset_queries_timed_out_total 0",
		"# TYPE tpset_queries_shed_total counter",
		"tpset_queries_shed_total 0",
		"# TYPE tpset_wal_write_errors_total counter",
		"tpset_wal_write_errors_total 0",
		"# TYPE tpset_degraded gauge",
		"tpset_degraded 0",
		"# TYPE tpset_queries_inflight gauge",
		"tpset_queries_inflight 0",
		"# TYPE tpset_queries_queued gauge",
		"tpset_queries_queued 0",
	} {
		if !strings.Contains(prom, line) {
			t.Errorf("Prometheus exposition missing %q", line)
		}
	}
}

// --- helpers ---

// newGovTestServer builds a server under cfg seeded with two synthetic
// relations big enough to stream several batches (r: 2000 tuples, s:
// 500).
func newGovTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	govSeed(t, s, "r", 1)
	govSeed(t, s, "s", 2)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func govSeed(t *testing.T, s *Server, name string, seed int64) {
	t.Helper()
	n := 2000
	if name != "r" {
		n = 500
	}
	rel := datagen.Synthetic(datagen.SyntheticConfig{
		Name: name, NumTuples: n, NumFacts: 40, MaxLen: 4, MaxGap: 2, Seed: seed,
	})
	if _, err := s.Load(name, rel); err != nil {
		t.Fatal(err)
	}
}

// parseStream decodes every NDJSON line of a stream body, returning the
// tuple-line count and the final trailer; malformed framing fails the
// test — that is the invariant the abort paths must preserve.
func parseStream(t *testing.T, body []byte) (tuples int, trailer StreamTrailer) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	var last []byte
	for sc.Scan() {
		line := sc.Bytes()
		var v json.RawMessage
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("stream line %d is not valid JSON: %v\n%s", lines, err, line)
		}
		last = append([]byte(nil), line...)
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Fatalf("stream had %d lines; want meta + trailer at least", lines)
	}
	if err := json.Unmarshal(last, &trailer); err != nil {
		t.Fatalf("trailer does not parse: %v\n%s", err, last)
	}
	return lines - 2, trailer // minus meta line and trailer
}

// lastTrailer parses only the final line of a stream body.
func lastTrailer(t *testing.T, body []byte) StreamTrailer {
	t.Helper()
	_, trailer := parseStream(t, body)
	return trailer
}

// streamDirect runs one /query/stream request against the handler
// in-process, so the handler's deferred accounting has run by the time
// it returns.
func streamDirect(srv *Server, w http.ResponseWriter, req QueryRequest) {
	blob, _ := json.Marshal(req)
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/query/stream", bytes.NewReader(blob)))
}

// droppingWriter accepts ok writes, then fails like a closed
// connection, counting the bytes it accepted.
type droppingWriter struct {
	hdr      http.Header
	ok       int
	accepted int64
}

func (w *droppingWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *droppingWriter) WriteHeader(int) {}
func (w *droppingWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errors.New("client gone")
	}
	w.ok--
	w.accepted += int64(len(p))
	return len(p), nil
}

// Every way a stream can end accounts it once: the tuples and bytes the
// client was actually sent, one drain-time and one encode-time
// observation. The early exits used to skip parts of that.
func TestStreamMetricsOnEarlyExits(t *testing.T) {
	check := func(t *testing.T, srv *Server, tuples int, bytes int64) {
		t.Helper()
		m := srv.snapshotMetrics()
		if m.Streams != 1 || m.Phases.Stream.Count != 1 || m.Phases.Encode.Count != 1 {
			t.Fatalf("streams %d, stream observations %d, encode observations %d; want 1 each",
				m.Streams, m.Phases.Stream.Count, m.Phases.Encode.Count)
		}
		if m.TuplesStreamed != uint64(tuples) || m.BytesStreamed != uint64(bytes) {
			t.Fatalf("tuplesStreamed %d, bytesStreamed %d; the client was sent %d tuples in %d bytes",
				m.TuplesStreamed, m.BytesStreamed, tuples, bytes)
		}
	}
	t.Run("complete", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "r | s"})
		tuples, trailer := parseStream(t, rec.Body.Bytes())
		if !trailer.Done || tuples <= streamRampBatch+core.BatchSize {
			t.Fatalf("trailer %+v after %d tuples; want a complete multi-batch stream", trailer, tuples)
		}
		check(t, srv, tuples, int64(rec.Body.Len()))
		if m := srv.snapshotMetrics(); m.Phases.Encode.SumMicros > m.Phases.Stream.SumMicros {
			t.Fatalf("encode time %dµs exceeds the stream's %dµs", m.Phases.Encode.SumMicros, m.Phases.Stream.SumMicros)
		}
	})
	t.Run("budget abort", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1, MaxResultTuples: 100})
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "r"})
		tuples, trailer := parseStream(t, rec.Body.Bytes())
		if trailer.Done || trailer.Tuples != tuples || tuples != streamRampBatch {
			t.Fatalf("trailer %+v after %d tuples; want the ramp batch, then the abort", trailer, tuples)
		}
		check(t, srv, tuples, int64(rec.Body.Len()))
	})
	t.Run("deadline", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		// Park the drain after the first batch until the deadline fires.
		var qctx context.Context
		testHookEvalStart = func(ctx context.Context) { qctx = ctx }
		testHookStreamBatch = func(shipped int, _ *core.Batch) {
			if shipped > 0 {
				<-qctx.Done()
			}
		}
		t.Cleanup(func() { testHookEvalStart, testHookStreamBatch = nil, nil })
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "r | s", TimeoutMillis: 30})
		tuples, trailer := parseStream(t, rec.Body.Bytes())
		if trailer.Done || !strings.Contains(trailer.Error, "deadline") || trailer.Tuples != tuples || tuples == 0 {
			t.Fatalf("trailer %+v after %d tuples; want a mid-stream deadline", trailer, tuples)
		}
		check(t, srv, tuples, int64(rec.Body.Len()))
		if got := srv.snapshotMetrics().QueriesTimedOut; got != 1 {
			t.Fatalf("QueriesTimedOut = %d, want 1", got)
		}
	})
	t.Run("client disconnect", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		w := &droppingWriter{ok: 3} // meta line, ramp batch, one steady batch
		streamDirect(srv, w, QueryRequest{Query: "r | s"})
		check(t, srv, streamRampBatch+core.BatchSize, w.accepted)
	})
}

// JSON cannot carry NaN or ±Inf. A result tuple with a non-finite
// probability used to end a stream with no trailer (the encoder error
// was taken for a vanished client); now every path refuses the tuple by
// index and keeps its framing: an error trailer on the stream, a 500 on
// the materialized responses.
func TestNonFiniteProbabilityIsRefused(t *testing.T) {
	t.Run("mid-stream", func(t *testing.T) {
		_, ts := newGovTestServer(t, Config{Workers: 1})
		const bad = 5 // row of the second batch
		testHookStreamBatch = func(shipped int, b *core.Batch) {
			if shipped == streamRampBatch {
				// "r | s" batches are operator output the stream owns.
				b.Tuples[bad].Prob = math.NaN()
			}
		}
		t.Cleanup(func() { testHookStreamBatch = nil })
		resp, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "r | s"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		tuples, trailer := parseStream(t, body)
		want := streamRampBatch + bad
		if tuples != want || trailer.Done || trailer.Tuples != want ||
			!strings.Contains(trailer.Error, fmt.Sprintf("result tuple %d: probability NaN", want)) {
			t.Fatalf("%d tuple lines, trailer %+v; want %d lines and the refused tuple named", tuples, trailer, want)
		}
	})
	t.Run("materialized", func(t *testing.T) {
		srv, ts := newGovTestServer(t, Config{Workers: 1})
		rel := relation.New(relation.NewSchema("bad", "F"))
		rel.AddBase(relation.NewFact("a"), "b1", 0, 5, 0.5)
		rel.AddBase(relation.NewFact("b"), "b2", 0, 5, 0.5)
		rel.Tuples[1].Prob = math.Inf(1)
		if _, err := srv.Load("bad", rel); err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct{ method, path string }{
			{"POST", "/query"}, {"GET", "/relations/bad"},
		} {
			resp, body := do(t, call.method, ts.URL+call.path, QueryRequest{Query: "bad", NoCache: true})
			if resp.StatusCode != http.StatusInternalServerError ||
				!strings.Contains(string(body), "tuple 1: probability +Inf") || !json.Valid(body) {
				t.Fatalf("%s %s: status %d, body %s; want a 500 naming tuple 1", call.method, call.path, resp.StatusCode, body)
			}
		}
		// With the cache on, the refused result is not stored: the
		// repeat evaluates and fails again instead of hitting.
		for i := 0; i < 2; i++ {
			if resp, body := do(t, "POST", ts.URL+"/query", QueryRequest{Query: "bad"}); resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("cached /query %d: status %d, body %s; want 500", i, resp.StatusCode, body)
			}
		}
		if st := srv.CacheStats(); st.Entries != 0 || st.Hits != 0 || st.Bytes != 0 {
			t.Fatalf("cache %+v after two refused results; want nothing stored", st)
		}
		_, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: "bad"})
		if tuples, trailer := parseStream(t, body); tuples != 1 || trailer.Done ||
			!strings.Contains(trailer.Error, "result tuple 1: probability +Inf") {
			t.Fatalf("%d tuple lines, trailer %+v; want one line and the refused tuple named", tuples, trailer)
		}
	})
}
