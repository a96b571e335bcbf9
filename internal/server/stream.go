package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
)

// POST /query/stream — the streaming form of POST /query. The response is
// NDJSON (application/x-ndjson, one JSON value per line):
//
//	line 1:      StreamMeta   — canonical query, complexity, version vector, schema
//	lines 2..n+1: TupleJSON   — one result tuple per line, canonical order
//	last line:   StreamTrailer — {"done":true, tuples, elapsedMicros}
//
// Tuples are written as the cursor plan produces them, a batch at a
// time: the wire encoder (wire.go) appends the whole batch into one
// pooled buffer and the handler issues one Write and one Flush per
// batch — no per-tuple write, no reflection, and in steady state no
// allocation. The meta and trailer lines, written once per stream,
// go through encoding/json. The meta line is flushed on its own (so the
// client learns the schema at µs-scale TTFT); the first batch is
// deliberately small (streamRampBatch, so the first results reach the
// client after a handful of sweep outputs; the engine's shard producers
// fill full core.GetBatch blocks and need no ramp, because the
// concatenation emits as soon as shard 0 has a block), and every later
// one is a pooled engine block of core.BatchSize rows, the unit the
// plan produces. That block is the flush cadence: a client sees at most
// core.BatchSize rows go stale between flushes, and each flush costs a
// few write(2) calls and a client wakeup whatever its size. A batch
// fill itself runs at sweep speed, so between flushes the client waits
// on computation, not on buffering. The server never materializes the
// result relation. The trailer marks a complete stream: clients that do
// not see it must treat the result as truncated (once streaming starts,
// HTTP offers no other way to signal a broken transfer).
//
// The result cache is bypassed in both directions — no lookup, no store:
// a stream never holds its whole body, and caching it would defeat its
// O(tree depth) memory bound.

// streamRampBatch is the capacity of the first tuple batch of a
// stream: small, so the first results ship after a few windows instead
// of after a full core.BatchSize fill on highly selective queries.
// Every later batch is a pooled core.BatchSize block.
const streamRampBatch = 64

// StreamMeta is the first NDJSON line of a /query/stream response.
type StreamMeta struct {
	// Query is the canonical form of the optimized query.
	Query string `json:"query"`
	// Complexity classifies the query (PTIME vs #P-hard; Theorem 1).
	Complexity string `json:"complexity"`
	// Inputs is the version vector the stream is computed from.
	Inputs []RelVersion `json:"inputs"`
	// Name and Attrs describe the result schema.
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

// StreamTrailer is the last NDJSON line of a stream. A complete stream
// ends {"done":true,...}; a stream the server had to abort — deadline,
// result budget, recovered panic — ends with done:false and Error set,
// still on a valid NDJSON line, so clients distinguish "server said
// stop, and why" from a connection that just died.
type StreamTrailer struct {
	Done          bool  `json:"done"`
	Tuples        int   `json:"tuples"`
	ElapsedMicros int64 `json:"elapsedMicros"`
	// Error is why the stream was aborted; empty on a complete stream.
	Error string `json:"error,omitempty"`
	// Trace is the per-operator stats tree, present only when the request
	// set trace — snapshotted after the drain, so its counts cover the
	// whole stream. Untraced trailers are byte-identical to previous
	// releases.
	Trace *obs.SpanStats `json:"trace,omitempty"`
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if he := decodeBody(w, r, MaxQueryBodyBytes, &req); he != nil {
		writeError(w, he.status, he.msg)
		return
	}
	pq, err := s.prepare(req)
	if err != nil {
		writeErrStatus(w, err)
		return
	}

	var (
		cw       *countingWriter // nil until the 200 is out
		start    time.Time
		count    int
		encoding time.Duration
	)
	// Every stream that sent its 200 — complete, aborted, client gone,
	// panic — is accounted once, after its last line: bytes and tuples
	// the client was sent, the drain time, and the encode time summed over
	// its batches.
	defer func() {
		if cw != nil {
			s.metrics.bytesStreamed.Add(uint64(cw.n))
			s.metrics.tuplesStreamed.Add(uint64(count))
			s.metrics.streamHist.Observe(time.Since(start))
			s.metrics.encodeHist.Observe(encoding)
		}
	}()
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// writeLine sends one reflected value (meta, trailer) as its own
	// NDJSON line and flushes it; false means the Write failed — the
	// client is gone.
	writeLine := func(v any) bool {
		err := encodeJSON(cw, v)
		flush()
		return err == nil
	}
	abort := func(reason string) {
		writeLine(StreamTrailer{
			Tuples:        count,
			ElapsedMicros: time.Since(start).Microseconds(),
			Error:         reason,
		})
	}

	// Admission, deadline and plan errors come back before any byte is
	// written, so they are ordinary status codes; once the 200 is out,
	// failures can only be reported through the trailer.
	err = s.evaluate(r.Context(), req, pq, func(cur *engine.StreamCursor) (err error) {
		s.metrics.streams.Inc()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		cw, start = &countingWriter{w: w}, time.Now()
		enc := getWireEncoder()
		defer enc.release()
		// Mid-stream panic net: the 200 and part of the body are already
		// on the wire, so the outer recoverPanics middleware could not keep
		// the framing valid. Recovering here can — lines reach the client
		// only in whole-batch writes, so whatever was being encoded is
		// still in the buffer and is dropped, and the error trailer lands
		// on a fresh line: the stream terminates as valid NDJSON with
		// done:false.
		defer func() {
			if p := recover(); p != nil {
				s.logPanic(r, p, "panic recovered mid-stream")
				abort("internal error: evaluation panicked mid-stream")
				err = errStreamEnded
			}
		}()

		schema := cur.Schema()
		meta := StreamMeta{
			Query:      pq.canonical,
			Complexity: query.Classify(pq.optimized).String(),
			Inputs:     pq.versions,
			Name:       schema.Name,
			Attrs:      schema.Attrs,
		}
		if meta.Attrs == nil {
			meta.Attrs = []string{}
		}
		// Flushed on its own — time-to-first-byte: the client learns the
		// schema immediately.
		if !writeLine(meta) {
			return errStreamEnded // client gone
		}

		limit := s.cfg.MaxResultTuples
		b := core.NewBatch(streamRampBatch) // unpooled: the ramp is stream-local
		defer func() {
			if b.Cap() == core.BatchSize {
				core.PutBatch(b) // the steady block; the ramp is garbage
			}
		}()
		for cur.NextBatch(b) {
			if testHookStreamBatch != nil {
				testHookStreamBatch(count, b)
			}
			if limit > 0 && count+len(b.Tuples) > limit {
				// The batch in hand proves the result exceeds the budget;
				// abort without shipping the overflow. Done stays false.
				abort(fmt.Sprintf("result exceeds the server's maxResultTuples budget (%d); stream aborted", limit))
				return errStreamEnded
			}
			t0 := time.Now()
			enc.reset()
			n, encErr := enc.batchLines(b)
			encoding += time.Since(t0)
			if _, err := cw.Write(enc.buf); err != nil {
				return errStreamEnded // client gone; evaluate's Close releases the producers
			}
			flush()
			count += n
			if encErr != nil {
				// The rows before the bad one are on the wire; the stream
				// ends here with a reason instead of an invalid line.
				abort(fmt.Sprintf("result tuple %d: %v; stream truncated", count, encErr))
				return errStreamEnded
			}
			if b.Cap() == streamRampBatch {
				// The ramp batch has shipped (time to first tuple); switch
				// to the engine's block.
				b = core.GetBatch()
			}
		}
		return nil
	})
	switch {
	case cw == nil:
		writeErrStatus(w, err)
	case err == nil:
		trailer := StreamTrailer{
			Done:          true,
			Tuples:        count,
			ElapsedMicros: time.Since(start).Microseconds(),
		}
		if pq.span != nil {
			trailer.Trace = pq.span.Snapshot()
		}
		writeLine(trailer)
	case err != errStreamEnded:
		// The drain ended because the deadline fired (or the client
		// vanished), not because the stream completed: the trailer says
		// so instead of claiming done ("query deadline exceeded" or
		// "request cancelled", from evalContextError).
		abort(err.Error() + "; stream truncated")
	}
}

// errStreamEnded is how a stream's drain reports that the stream is
// already over — its last line written (an abort trailer) or its client
// gone — so nothing more is written to it.
var errStreamEnded = errors.New("stream ended")

// testHookStreamBatch, when non-nil, runs once per drained batch with
// the tuple count shipped so far and the batch about to be encoded —
// the seam the mid-stream tests use to blow up after framing has
// started or to plant a value the encoder must refuse.
var testHookStreamBatch func(shipped int, b *core.Batch)
