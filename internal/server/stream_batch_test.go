package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// one ResponseWriter write for the meta line, one for the ramp batch,
// one per engine block (core.BatchSize rows) after it and one for the
// trailer — each one a syscall on a real connection and a wakeup of the
// client. It runs sequential and sharded, because a sharded plan's
// blocks reach the handler through the engine's concatenation.
func TestStreamWriteCount(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := New(Config{Workers: workers})
		big := datagen.Synthetic(datagen.SyntheticConfig{
			Name: "big", NumTuples: 6000, NumFacts: 60, MaxLen: 3, MaxGap: 3, Seed: 6,
		})
		if _, err := s.Load("big", big); err != nil {
			t.Fatal(err)
		}

		body, _ := json.Marshal(QueryRequest{Query: "big | big"})
		req := httptest.NewRequest("POST", "/query/stream", bytes.NewReader(body))
		cw := &countingResponseWriter{rec: httptest.NewRecorder()}
		s.Handler().ServeHTTP(cw, req)

		if cw.rec.Code != 200 {
			t.Fatalf("status %d: %s", cw.rec.Code, cw.rec.Body.Bytes())
		}
		lines := bytes.Count(cw.rec.Body.Bytes(), []byte("\n"))
		tuples := lines - 2 // minus meta and trailer
		if tuples < 4*core.BatchSize {
			t.Fatalf("only %d tuples streamed; want a stream of several blocks", tuples)
		}
		blocks := (tuples - streamRampBatch + core.BatchSize - 1) / core.BatchSize
		if want := 1 + 1 + blocks + 1; cw.writes > want {
			t.Fatalf("workers=%d: %d ResponseWriter writes for %d tuples; want at most %d (meta, ramp, %d blocks of %d, trailer)",
				workers, cw.writes, tuples, want, blocks, core.BatchSize)
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
		s.Handler().ServeHTTP(&droppingWriter{ok: 1}, req) // the meta line lands, then the client is gone
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
