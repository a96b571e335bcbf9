package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/relation"
)

// TestStreamBytesUnchangedByBatching pins the wire format of the
// batched stream handler: for a fixed catalog and query, every meta and
// tuple line must be byte-identical to encoding the materialized result
// tuple-by-tuple with a plain json.Encoder over the TupleJSON structs —
// the original write path — and the trailer must carry the exact tuple
// count. Batching and the append-style encoder are transport changes
// only; the bytes on the wire do not move.
func TestStreamBytesUnchangedByBatching(t *testing.T) {
	s, ts := newTestServer(t)
	// A larger relation so multiple batches and buffer fills happen.
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 5000, NumFacts: 50, MaxLen: 3, MaxGap: 3, Seed: 5,
	})
	if _, err := s.Load("big", big.Clone()); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{"c - (a | b)", "big | big", "big & c"} {
		resp, body := do(t, "POST", ts.URL+"/query/stream", QueryRequest{Query: q})
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s: %d NDJSON lines", q, len(lines))
		}

		// Reference: the materialized result of the same query, encoded
		// line-by-line exactly as the tuple-at-a-time handler did.
		ref, err := s.RunQueryCtx(context.Background(), QueryRequest{Query: q, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		result := EncodeRelation(resultRelation(t, ref), 0)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		meta := StreamMeta{
			Query:      ref.Query,
			Complexity: ref.Complexity,
			Inputs:     ref.Inputs,
			Name:       result.Name,
			Attrs:      result.Attrs,
		}
		if err := enc.Encode(meta); err != nil {
			t.Fatal(err)
		}
		for i := range result.Tuples {
			if err := enc.Encode(result.Tuples[i]); err != nil {
				t.Fatal(err)
			}
		}
		wantLines := bytes.Split(bytes.TrimSuffix(want.Bytes(), []byte("\n")), []byte("\n"))

		if len(lines) != len(wantLines)+1 { // + trailer
			t.Fatalf("%s: %d stream lines, want %d+trailer", q, len(lines), len(wantLines))
		}
		for i := range wantLines {
			if !bytes.Equal(lines[i], wantLines[i]) {
				t.Fatalf("%s: line %d:\n got %s\nwant %s", q, i, lines[i], wantLines[i])
			}
		}
		var trailer StreamTrailer
		if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
			t.Fatalf("%s: trailer: %v", q, err)
		}
		if !trailer.Done || trailer.Tuples != len(result.Tuples) {
			t.Fatalf("%s: trailer %+v, want done with %d tuples", q, trailer, len(result.Tuples))
		}
	}
}

// countingResponseWriter counts Write calls — each one a syscall on a
// real connection — while delegating to a recorder.
type countingResponseWriter struct {
	rec    *httptest.ResponseRecorder
	writes int
}

func (w *countingResponseWriter) Header() http.Header { return w.rec.Header() }
func (w *countingResponseWriter) WriteHeader(c int)   { w.rec.WriteHeader(c) }
func (w *countingResponseWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.rec.Write(p)
}

// TestStreamWriteCount pins the write cadence of the stream handler:
// nothing is written until a block's worth of rows (core.BatchSize) is
// encoded — then one ResponseWriter write carries the meta line and the
// first block, one write each later block, and one last write whatever
// rows are left with the trailer. A stream that ends before its first
// block is one write, sized. Each write is a syscall or more on a real
// connection and a wakeup of the client. It runs sequential and
// sharded, because a sharded plan's blocks reach the handler through
// the engine's concatenation, which may hand a shard's last block over
// short: the handler holds it and pulls once more, so every write but
// the last still carries a block's worth or more.
func TestStreamWriteCount(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := New(Config{Workers: workers})
		big := datagen.Synthetic(datagen.SyntheticConfig{
			Name: "big", NumTuples: 6000, NumFacts: 60, MaxLen: 3, MaxGap: 3, Seed: 6,
		})
		small := datagen.Synthetic(datagen.SyntheticConfig{
			Name: "small", NumTuples: 600, NumFacts: 6, MaxLen: 3, MaxGap: 3, Seed: 7,
		})
		for name, r := range map[string]*relation.Relation{"big": big, "small": small} {
			if _, err := s.Load(name, r); err != nil {
				t.Fatal(err)
			}
		}

		for _, q := range []string{"big | big", "small | small"} {
			body, _ := json.Marshal(QueryRequest{Query: q})
			req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
			cw := &countingResponseWriter{rec: httptest.NewRecorder()}
			s.Handler().ServeHTTP(cw, req)

			if cw.rec.Code != 200 {
				t.Fatalf("status %d: %s", cw.rec.Code, cw.rec.Body.Bytes())
			}
			lines := bytes.Count(cw.rec.Body.Bytes(), []byte("\n"))
			tuples := lines - 2 // minus meta and trailer
			want := tuples/core.BatchSize + 1
			switch {
			case q == "big | big" && tuples < 4*core.BatchSize:
				t.Fatalf("only %d tuples streamed; want a stream of several blocks", tuples)
			case q == "small | small" && (tuples == 0 || tuples >= core.BatchSize):
				t.Fatalf("%d tuples streamed; want a stream shorter than a block", tuples)
			case cw.writes > want || workers == 1 && cw.writes != want:
				t.Fatalf("workers=%d %s: %d ResponseWriter writes for %d tuples; want %d (%d blocks of %d, then the rest with the trailer)",
					workers, q, cw.writes, tuples, want, want-1, core.BatchSize)
			}
			sized := cw.rec.Header().Get("Content-Length")
			if short := tuples < core.BatchSize; short != (sized == strconv.Itoa(cw.rec.Body.Len())) || !short && sized != "" {
				t.Fatalf("workers=%d %s: %d tuples sent with Content-Length %q; want it on a stream shorter than a block only",
					workers, q, tuples, sized)
			}
		}
	}
}

// TestStreamSurvivesBrokenClient pins that a stream aborted by a dead
// client cannot poison the pooled write state for later streams: the
// pooled encoder holds bytes only, never the writer or its error, so
// the healthy follow-up request below comes back whole.
func TestStreamSurvivesBrokenClient(t *testing.T) {
	s, _ := newTestServer(t)
	big := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "big", NumTuples: 4000, NumFacts: 40, MaxLen: 3, MaxGap: 3, Seed: 7,
	})
	if _, err := s.Load("big", big); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{Query: "big | big"})

	// Enough broken streams to cycle the pool entries.
	for i := 0; i < 8; i++ {
		req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
		s.Handler().ServeHTTP(&droppingWriter{ok: 1}, req) // the meta line and the first block land, then the client is gone
	}

	req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	out := rec.Body.Bytes()
	if len(out) == 0 {
		t.Fatal("healthy stream after broken clients returned an empty body")
	}
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	var trailer StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("healthy stream has no trailer (%d lines, err %v)", len(lines), err)
	}
	if trailer.Tuples != len(lines)-2 {
		t.Fatalf("trailer says %d tuples, stream carries %d", trailer.Tuples, len(lines)-2)
	}
}

// TestPrepareWorkersResolution pins the worker resolution rule of the
// request prologue: request > server config > runtime.GOMAXPROCS(0).
func TestPrepareWorkersResolution(t *testing.T) {
	load := func(s *Server) {
		r := relation.New(relation.NewSchema("r", "F"))
		r.AddBase(relation.NewFact("x"), "x1", 0, 3, 0.5)
		if _, err := s.Load("r", r); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		server  int
		request int
		want    int
	}{
		{0, 0, runtime.GOMAXPROCS(0)}, // nothing set: scale with the hardware
		{3, 0, 3},                     // server default wins over hardware
		{3, 2, 2},                     // request wins over server default
		{0, 5, 5},                     // request wins over hardware
	}
	for _, tc := range cases {
		s := New(Config{Workers: tc.server})
		load(s)
		pq, err := s.prepare(QueryRequest{Query: "r", Workers: tc.request})
		if err != nil {
			t.Fatal(err)
		}
		if pq.workers != tc.want {
			t.Fatalf("server=%d request=%d: resolved %d workers, want %d",
				tc.server, tc.request, pq.workers, tc.want)
		}
	}
}

// heldStream checks that rec holds a stream sent whole, never flushed —
// a 200 sized by Content-Length whose first line is the meta line — and
// parses it.
func heldStream(t *testing.T, rec *httptest.ResponseRecorder) (tuples int, trailer StreamTrailer) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Flushed {
		t.Fatalf("status %d, flushed %v; want a 200 sent whole", rec.Code, rec.Flushed)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("Content-Length %q, want %s", got, want)
	}
	first, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	var meta StreamMeta
	if err := json.Unmarshal(first, &meta); err != nil || meta.Query == "" {
		t.Fatalf("first line %s is not the meta line (%v)", first, err)
	}
	return parseStream(t, rec.Body.Bytes())
}

// A stream that ends before its first block — empty, or aborted while
// its first block is held — is sent whole and sized, and frames like any
// other: the meta line first, the trailer last, done only where the plan
// ran to its end. A cursor's end does not say which: a deadline or a
// cancelled request ends it too.
func TestStreamHeldUntilFirstBlock(t *testing.T) {
	t.Cleanup(func() { testHookEvalStart, testHookStreamBatch = nil, nil })
	t.Run("empty", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		if _, err := srv.Load("e", relation.New(relation.NewSchema("e", "F"))); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "e"})
		if tuples, trailer := heldStream(t, rec); tuples != 0 || !trailer.Done || trailer.Tuples != 0 {
			t.Fatalf("%d tuples, trailer %+v; want meta and a done trailer", tuples, trailer)
		}
	})
	// "s" is 500 rows, one block shorter than core.BatchSize: the hook
	// runs once, on the block the handler then holds.
	t.Run("deadline", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		var qctx context.Context
		testHookEvalStart = func(ctx context.Context) { qctx = ctx }
		testHookStreamBatch = func(int, *core.Batch) { <-qctx.Done() }
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "s", TimeoutMillis: 30})
		tuples, trailer := heldStream(t, rec)
		if trailer.Done || trailer.Error != "query deadline exceeded; stream truncated" || tuples != 500 || trailer.Tuples != tuples {
			t.Fatalf("%d tuples, trailer %+v; want the held block, then the deadline", tuples, trailer)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		testHookEvalStart = nil
		testHookStreamBatch = func(int, *core.Batch) { cancel() }
		blob, _ := json.Marshal(QueryRequest{Query: "s"})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/query/stream", bytes.NewReader(blob)).WithContext(ctx))
		tuples, trailer := heldStream(t, rec)
		if trailer.Done || trailer.Error != "request cancelled; stream truncated" || tuples != 500 || trailer.Tuples != tuples {
			t.Fatalf("%d tuples, trailer %+v; want the held block, then the cancellation", tuples, trailer)
		}
	})
	t.Run("panic", func(t *testing.T) {
		srv, _ := newGovTestServer(t, Config{Workers: 1})
		testHookStreamBatch = func(int, *core.Batch) { panic("kaboom before the first flush") }
		rec := httptest.NewRecorder()
		streamDirect(srv, rec, QueryRequest{Query: "r"})
		tuples, trailer := heldStream(t, rec)
		if tuples != 0 || trailer.Done || trailer.Tuples != 0 || !strings.Contains(trailer.Error, "panicked") {
			t.Fatalf("%d tuples, trailer %+v; want meta and a panic trailer", tuples, trailer)
		}
	})
}
