package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
// Tuples are encoded as the cursor plan produces them, a block at a
// time: the wire encoder (wire.go) appends every line — meta, rows and
// trailer, with reflection only for a requested trace — into one
// pooled buffer, with no per-tuple write, no reflection on a row, and
// in steady state no allocation. The handler pulls pooled engine blocks
// of core.BatchSize rows, the unit the plan produces, and holds what it
// has encoded until it holds a block's worth of rows: then it writes
// the buffer, without a flush. Nothing, not even the status line, goes out
// before that first block, so a stream that ends first — fewer than
// core.BatchSize rows, or none, or an abort — is sent whole, sized by
// Content-Length, in one Write of about two write(2) calls: on a short,
// selective result, flushing its lines in pieces costs more than its
// sweep. A longer stream is chunked, and from its first write on a
// client sees at most a block's worth of rows go stale between writes.
// The price is time to first tuple on a sequential plan: its first
// rows, and the meta line with them, ship after a full block or at the
// end. A sharded plan pays little for it, because its shard producers
// already fill whole blocks before the handler sees a row. A short
// block — the concatenation hands a shard's last block over as it is —
// is held and the next one pulled. A block fill runs at sweep speed, so
// between writes the client waits on computation, not on buffering.
// The server never materializes the result relation. The trailer marks
// a complete stream: clients that do not see it must treat the result
// as truncated (once chunked streaming starts, HTTP offers no other way
// to signal a broken transfer).
//
// The result cache is bypassed in both directions — no lookup, no store:
// a stream never holds its whole body, and caching it would defeat its
// O(tree depth) memory bound.

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
		enc       *wireEncoder // the bytes not yet sent; nil until the drain starts
		streaming bool         // the 200 is out without a Content-Length
		start     time.Time
		count     int   // tuple lines encoded
		shipped   int   // tuple lines the client was sent
		sent      int64 // bytes the client was sent
		encoding  time.Duration
	)
	// Every stream whose drain started — complete, aborted, client gone,
	// panic — is accounted once, after its last line: bytes and tuples
	// the client was sent, the drain time, and the encode time summed over
	// its blocks.
	defer func() {
		if enc != nil {
			s.metrics.bytesStreamed.Add(uint64(sent))
			s.metrics.tuplesStreamed.Add(uint64(shipped))
			s.metrics.streamHist.Observe(time.Since(start))
			s.metrics.encodeHist.Observe(encoding)
			enc.release()
		}
	}()
	// send writes what enc holds and empties it; false means the Write
	// failed — the client is gone. The first send writes the status line
	// too: sized when it is also the last, so the whole response is one
	// Write, chunked otherwise. Nothing is flushed: a block is far larger
	// than the connection's 4 KB buffer, so its Write reaches the socket
	// on its own, all but the chunk's closing CRLF, which waits in the
	// buffer for the next block's write — a flush would spend a write(2)
	// on those two bytes alone. The handler's return ends the body.
	send := func(last bool) bool {
		if !streaming {
			if last {
				w.Header().Set("Content-Length", strconv.Itoa(len(enc.buf)))
			}
			w.WriteHeader(http.StatusOK)
			streaming = !last
		}
		n, err := w.Write(enc.buf)
		sent += int64(n)
		enc.reset()
		if err != nil {
			return false
		}
		shipped = count
		return true
	}
	// finish appends the trailer to the lines not yet sent and sends them:
	// the one way a started stream ends, held or streaming.
	finish := func(t StreamTrailer) {
		t.Tuples, t.ElapsedMicros = count, time.Since(start).Microseconds()
		_ = enc.streamTrailer(&t) // appends nothing when the trace cannot be encoded
		send(true)
	}
	abort := func(reason string) { finish(StreamTrailer{Error: reason}) }

	// Admission, deadline and plan errors come back before the drain
	// starts, so they are ordinary status codes; once it has started, the
	// response is a 200 whatever happens, and failures are reported
	// through the trailer.
	err = s.evaluate(r.Context(), req, pq, func(cur *engine.StreamCursor) (err error) {
		s.metrics.streams.Inc()
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc, start = getWireEncoder(), time.Now()
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
		// The meta line opens the buffer the first rows are encoded into
		// and reaches the client with them.
		enc.streamMeta(&meta)

		// Panic net: the 200 and part of the body may be on the wire, so
		// the outer recoverPanics middleware could not keep the framing
		// valid. Recovering here can — lines reach the client only in
		// whole-block writes, so the rows of the block being encoded are
		// still in the buffer and are dropped, and the error trailer lands
		// on a fresh line after the lines counted: the stream terminates
		// as valid NDJSON with done:false, its meta line first whether or
		// not anything had been sent.
		encodingFrom := -1 // where the block being encoded starts in enc.buf; -1: none is
		defer func() {
			if p := recover(); p != nil {
				s.logPanic(r, p, "panic recovered mid-stream")
				if encodingFrom >= 0 {
					enc.truncate(encodingFrom)
				}
				abort("internal error: evaluation panicked mid-stream")
				err = errStreamEnded
			}
		}()

		limit := s.cfg.MaxResultTuples
		b := core.GetBatch()
		defer core.PutBatch(b)
		for cur.NextBatch(b) {
			if testHookStreamBatch != nil {
				testHookStreamBatch(count, b)
			}
			if limit > 0 && count+len(b.Tuples) > limit {
				// The block in hand proves the result exceeds the budget;
				// abort without shipping the overflow. Done stays false.
				abort(fmt.Sprintf("result exceeds the server's maxResultTuples budget (%d); stream aborted", limit))
				return errStreamEnded
			}
			t0 := time.Now()
			encodingFrom = len(enc.buf)
			n, encErr := enc.batchLines(b)
			encodingFrom = -1
			encoding += time.Since(t0)
			count += n
			if encErr != nil {
				// The rows before the bad one are encoded; the stream ends
				// after them with a reason instead of an invalid line.
				abort(fmt.Sprintf("result tuple %d: %v; stream truncated", count, encErr))
				return errStreamEnded
			}
			// Hold a short block and pull once more: a write carries at
			// least a block's worth of rows, or the end of the stream.
			if count-shipped >= core.BatchSize && !send(false) {
				return errStreamEnded // client gone; evaluate's Close releases the producers
			}
		}
		return nil
	})
	switch {
	case enc == nil:
		writeErrStatus(w, err)
	case err == nil:
		trailer := StreamTrailer{Done: true}
		if pq.span != nil {
			trailer.Trace = pq.span.Snapshot()
		}
		finish(trailer)
	case err != errStreamEnded:
		// The drain ended because the deadline fired (or the client
		// vanished), not because the stream completed — a cursor reports
		// both as its end: the trailer says so instead of claiming done
		// ("query deadline exceeded" or "request cancelled", from
		// evalContextError).
		abort(err.Error() + "; stream truncated")
	}
}

// errStreamEnded is how a stream's drain reports that the stream is
// already over — its last line written (an abort trailer) or its client
// gone — so nothing more is written to it.
var errStreamEnded = errors.New("stream ended")

// testHookStreamBatch, when non-nil, runs once per drained block with
// the tuple count encoded so far and the block about to be encoded —
// the seam the mid-stream tests use to blow up after framing has
// started or to plant a value the encoder must refuse.
var testHookStreamBatch func(encoded int, b *core.Batch)
