package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/engine"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/segment"
)

// Config tunes a Server.
type Config struct {
	// Workers is the default worker budget of POST /query when the request
	// does not set one. Values below one select runtime.GOMAXPROCS.
	Workers int
	// CacheSize bounds the result cache in entries. 0 selects
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// Logger receives structured request logs (one record per request,
	// plus request-scoped engine debug records when it is enabled at
	// Debug level). nil disables request logging entirely — no logger is
	// attached to request contexts and the handler chain has no logging
	// wrapper, so the unlogged server is exactly the PR 5 handler stack.
	Logger *slog.Logger
	// QueryTimeout bounds each query's evaluation wall time. A request's
	// timeoutMillis can tighten it but never exceed it; expiry answers
	// 504. Zero means no server-side deadline.
	QueryTimeout time.Duration
	// MaxConcurrent bounds the queries evaluating at once. Zero picks
	// 4x GOMAXPROCS; negative disables admission control entirely.
	MaxConcurrent int
	// MaxQueued bounds the queries waiting for an evaluation slot;
	// overflow is shed with 429 + Retry-After. Zero picks 4x the
	// concurrency bound; negative means no queue (immediate shed).
	MaxQueued int
	// MaxResultTuples bounds the result size a single query may
	// produce: POST /query answers 422, a stream aborts with
	// an NDJSON error trailer. A budget violation is a client error,
	// never a silent truncation. Zero means unlimited.
	MaxResultTuples int
}

// DefaultCacheSize is the result-cache capacity when Config leaves it 0.
const DefaultCacheSize = 256

// Server is the HTTP/JSON query service: a versioned relation catalog, a
// query evaluator over the partition-parallel engine, and an LRU result
// cache. Create one with New, seed the catalog (Load or PUT requests) and
// serve Handler().
type Server struct {
	cfg     Config
	catalog *Catalog
	cache   *Cache
	mux     *http.ServeMux
	started time.Time
	metrics serverMetrics
	store   *segment.Store // nil = memory-only (no -data-dir); set once by AttachStore
	gate    *admissionGate // nil = unlimited (Config.MaxConcurrent < 0)
}

// MaxWorkers bounds the per-request worker budget: the engine sizes its
// shard count (views, plans, channels) and its producer pool from the
// budget, so an absurd value would allocate absurdly on any input large
// enough to shard. Requests beyond it (or below zero) are
// rejected with 400 rather than passed through to the engine.
const MaxWorkers = 4096

// Request bodies are bounded before they reach the JSON decoder, so an
// oversized (or unbounded) body cannot balloon server memory; overflow
// is reported as 413 Request Entity Too Large. Queries are short text —
// a megabyte is generous; relation uploads carry full tuple payloads and
// get a correspondingly larger bound.
const (
	// MaxQueryBodyBytes bounds POST /query and POST /query/stream bodies.
	MaxQueryBodyBytes = 1 << 20 // 1 MiB
	// MaxRelationBodyBytes bounds PUT /relations/{name} bodies.
	MaxRelationBodyBytes = 256 << 20 // 256 MiB
)

// maxRelationBody is the effective PUT limit; a variable so tests can
// exercise the overflow path without a multi-hundred-megabyte payload.
var maxRelationBody int64 = MaxRelationBodyBytes

// decodeBody decodes the request body into v under a byte limit,
// mapping overflow to a 413 httpError and malformed JSON to 400.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) *httpError {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("decoding body: %v", err)}
	}
	return nil
}

// New returns a server with an empty catalog.
func New(cfg Config) *Server {
	size := cfg.CacheSize
	switch {
	case size == 0:
		size = DefaultCacheSize
	case size < 0:
		size = 0 // disabled
	}
	s := &Server{
		cfg:     cfg,
		catalog: NewCatalog(),
		cache:   NewCache(size),
		mux:     http.NewServeMux(),
		started: time.Now(),
		gate:    newGate(cfg.MaxConcurrent, cfg.MaxQueued),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /relations", s.handleListRelations)
	s.mux.HandleFunc("PUT /relations/{name}", s.handlePutRelation)
	s.mux.HandleFunc("GET /relations/{name}", s.handleGetRelation)
	s.mux.HandleFunc("DELETE /relations/{name}", s.handleDeleteRelation)
	s.mux.HandleFunc("GET /stats/{name}", s.handleStats)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /query/explain", s.handleQueryExplain)
	return s
}

// Handler returns the HTTP handler serving the API: the mux inside the
// panic-recovery net, inside (with a configured logger) the
// request-logging middleware. Recovery sits innermost so the log line
// still records the 500 it produces.
func (s *Server) Handler() http.Handler {
	h := s.recoverPanics(s.mux)
	if s.cfg.Logger == nil {
		return h
	}
	return s.requestLog(h)
}

// recoverPanics is the safety net under every handler: a panic must
// cost its own request a 500, not the process — on a query server, one
// malformed edge case in one operator must not take down the catalog
// everyone else is reading. The 500 is written only when the handler
// had not started a response (a mid-stream panic is handled inside the
// stream handler itself, which can still terminate its NDJSON framing
// validly — see handleQueryStream).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.logPanic(r, p, "panic recovered")
				if rec.code == 0 {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// logPanic accounts a recovered panic: the panicsRecovered counter and,
// when a logger is configured, one error record with the value and the
// stack. It is called from the deferred recover, so the stack still
// shows where the panic was raised.
func (s *Server) logPanic(r *http.Request, p any, msg string) {
	s.metrics.panicsRecovered.Inc()
	lg := obs.Logger(r.Context())
	if lg == nil {
		lg = s.cfg.Logger
	}
	if lg != nil {
		lg.LogAttrs(r.Context(), slog.LevelError, msg,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Any("panic", p),
			slog.String("stack", string(debug.Stack())))
	}
}

// requestLog is the logging middleware: it mints a request ID, attaches
// a request-scoped logger tagged with it to the context (obs.WithLogger
// — the engine's shard workers pick the logger up from there), and
// emits one structured record per request with method, path, status,
// response bytes and latency.
func (s *Server) requestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.NewRequestID()
		lg := s.cfg.Logger.With(slog.String("req", id))
		ctx := obs.WithLogger(r.Context(), lg)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		lg.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status()),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("elapsed", time.Since(start)))
	})
}

// statusRecorder captures the response status and byte count for the
// request log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// status returns the response code, defaulting to 200 when the handler
// never called WriteHeader explicitly.
func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// AttachStore wires a durable segment store under the catalog: the
// store's recovered relations (heap-resident, frozen) seed the catalog
// without re-ingesting, and every subsequent Load, PUT and DELETE is
// written to the store's WAL before the catalog installs it. Call it
// once, after New and before serving or seeding; the caller keeps
// ownership of the store's lifecycle (Close on shutdown: it flushes,
// and afterwards every write is refused with a 503 while the restored
// relations keep serving).
func (s *Server) AttachStore(st *segment.Store) error {
	rels, dict, err := st.Restore()
	if err != nil {
		return err
	}
	s.catalog.Restore(rels, dict)
	s.store = st
	s.metrics.segmentsRestored.Add(uint64(st.SegmentCount()))
	return nil
}

// putRelation is the tail of admitRelation: the catalog prepares the
// admission, the attached store makes it durable (its WAL fsync is the
// acknowledgement point, and it carries any dictionary-rebuild sibling
// rewrites), and only then does the catalog install it and the cache
// drop the entries that depended on name. A store that refuses —
// degraded, or a failed append or fsync — leaves the catalog as it was
// (persistError maps the refusal to 503). A Put that acknowledged
// returns nil even if the deferred segment apply then degraded the
// store.
func (s *Server) putRelation(name string, rel *relation.Relation) (version uint64, existed bool, err error) {
	var persist func(map[string]*relation.Relation) error
	if s.store != nil {
		persist = func(rebound map[string]*relation.Relation) error {
			if err := s.store.Put(name, rel, rebound); err != nil {
				return persistError("relation", name, err)
			}
			return nil
		}
	}
	if version, existed, err = s.catalog.Put(name, rel, persist); err == nil {
		s.cache.InvalidateRelation(name)
	}
	return version, existed, err
}

// dropRelation is the shared tail of Drop and DELETE, ordered like
// putRelation: an absent name is reported before the store is asked, a
// refused store.Drop leaves the relation in place, and the cache is
// invalidated once the drop is installed.
func (s *Server) dropRelation(name string) (existed bool, invalidated int, err error) {
	var persist func() error
	if s.store != nil {
		persist = func() error {
			if err := s.store.Drop(name); err != nil {
				return persistError("drop of", name, err)
			}
			return nil
		}
	}
	if existed, err = s.catalog.Drop(name, persist); err != nil || !existed {
		return existed, 0, err
	}
	return true, s.cache.InvalidateRelation(name), nil
}

// Load seeds or replaces a catalog relation programmatically (startup
// seeding by cmd/tpserve; tests) through the admission path a PUT
// request takes (admitRelation), so it mutates rel: interned, sorted and
// bound to the catalog dictionary.
//
// Load and PUT are the only mutation paths: evaluation relies on catalog
// relations being sorted and duplicate-free (it runs the drivers with
// AssumeSorted), so the raw catalog is deliberately not exposed.
func (s *Server) Load(name string, rel *relation.Relation) (uint64, error) {
	version, _, err := s.admitRelation(name, rel)
	return version, err
}

// admitRelation is the one admission path, behind Load and PUT. It
// checks the name against the query grammar (400), admits the relation
// (relation.Relation.Admit: interned when it arrives unbound, checked
// for duplicate-freeness, Def. 1, 422, and sorted, on one key sort; an
// ordered relation's rows do not move), and hands it to putRelation,
// which rebinds it to the catalog dictionary — preserving the order —
// bumps the version, invalidates dependent cache entries and, with an
// attached store, WAL-logs the admission before it counts.
func (s *Server) admitRelation(name string, rel *relation.Relation) (version uint64, existed bool, err error) {
	if !query.IsIdent(name) {
		return 0, false, &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("invalid relation name %q: must be an identifier of the query grammar (letters, digits, _, non-leading dots; not a reserved word)", name)}
	}
	if _, err := rel.Admit(); err != nil {
		return 0, false, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	if version, existed, err = s.putRelation(name, rel); err == nil {
		s.metrics.admissions.Inc()
		s.metrics.tuplesAdmitted.Add(uint64(rel.Len()))
	}
	return version, existed, err
}

// Drop removes a catalog relation and invalidates its dependent cache
// entries; it reports whether the relation existed. With an attached
// store a persist failure surfaces as the error, and the relation stays.
func (s *Server) Drop(name string) (bool, error) {
	existed, _, err := s.dropRelation(name)
	return existed, err
}

// Relations returns the catalog's relation names and versions, sorted by
// name.
func (s *Server) Relations() []RelVersion { return s.catalog.List() }

// Relation returns the named catalog relation and its version. The
// returned relation is shared and must be treated as read-only.
func (s *Server) Relation(name string) (*relation.Relation, uint64, bool) {
	return s.catalog.Get(name)
}

// CacheStats returns the result-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Query is a TP set query in the Def. 4 surface syntax, e.g.
	// "c - (a | b)".
	Query string `json:"query"`
	// Workers overrides the server's default worker budget for this
	// request (0 = server default, which itself defaults to GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// LazyProb skips probability valuation: result tuples carry lineage
	// and p = 0. Cached separately from eager results.
	LazyProb bool `json:"lazyProb,omitempty"`
	// NoCache bypasses the result cache for this request (no lookup, no
	// store); the benchmark harness uses it to measure cold latency.
	NoCache bool `json:"noCache,omitempty"`
	// Trace records a per-operator execution trace and returns it in the
	// response envelope (QueryResponse.Trace; the stream trailer on
	// /query/stream). A traced request skips the cache lookup — a cached
	// result has no execution to trace — but still stores its result.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMillis bounds this request's evaluation wall time. It can
	// tighten the server's QueryTimeout but never exceed it; expiry
	// answers 504 (an NDJSON error trailer on the stream path). 0 means
	// the server default.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// QueryResponse is the body of a successful POST /query, as a client
// decodes it. The server does not build one: it writes the same bytes
// from a QueryResult through the wire encoder (wire.go).
type QueryResponse struct {
	// Query is the canonical form of the optimized query — the first half
	// of the cache key.
	Query string `json:"query"`
	// Complexity classifies the query (PTIME vs #P-hard; Theorem 1).
	Complexity string `json:"complexity"`
	// Inputs is the version vector the result was computed from — the
	// second half of the cache key.
	Inputs []RelVersion `json:"inputs"`
	// Cached reports whether the result came from the cache.
	Cached bool `json:"cached"`
	// ElapsedMicros is the server-side latency of this request in
	// microseconds (evaluation or cache lookup, excluding JSON encoding).
	ElapsedMicros int64 `json:"elapsedMicros"`
	// Result is the output relation.
	Result RelationJSON `json:"result"`
	// Trace is the per-operator stats tree; only present when the request
	// set trace (absent keys keep the untraced wire format byte-identical
	// to previous releases).
	Trace *obs.SpanStats `json:"trace,omitempty"`
}

// QueryResult is what RunQueryCtx returns: the QueryResponse envelope
// fields beside the encoded result. The handler writes the envelope, then
// Result as it is, then the trace and the closing brace.
type QueryResult struct {
	Query         string
	Complexity    string
	Inputs        []RelVersion
	Cached        bool
	ElapsedMicros int64
	// Result is the wire form of the output relation: the bytes of the
	// QueryResponse.Result object, decoded by json.Unmarshal into a
	// RelationJSON and DecodeRelation. It may be shared with the result
	// cache and must not be modified.
	Result []byte
	// Tuples is the number of tuples in Result.
	Tuples int
	// Trace is set only when the request asked for it.
	Trace *obs.SpanStats

	encoding time.Duration // spent encoding Result on a miss; 0 on a hit
}

// preparedQuery is the outcome of the shared request prologue: parsed and
// optimized query plus the catalog snapshot it will evaluate against.
type preparedQuery struct {
	optimized query.Node
	canonical string
	names     []string
	db        map[string]*relation.Relation
	versions  []RelVersion
	workers   int
	span      *obs.Span // the trace root when the request traces, else nil
}

// prepare runs the request prologue shared by the three query verbs:
// validate the request knobs, parse, snapshot the catalog, push down
// selections by its schemas, resolve the worker budget. Its latency
// lands in the parse-phase histogram.
func (s *Server) prepare(req QueryRequest) (*preparedQuery, error) {
	defer func(t0 time.Time) { s.metrics.parseHist.Observe(time.Since(t0)) }(time.Now())
	if req.Workers < 0 || req.Workers > MaxWorkers {
		return nil, &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("workers %d out of range [0, %d] (0 = server default)", req.Workers, MaxWorkers)}
	}
	if req.TimeoutMillis < 0 {
		return nil, &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("timeoutMillis %d is negative (0 = server default)", req.TimeoutMillis)}
	}
	node, err := query.Parse(req.Query)
	if err != nil {
		return nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}
	names := query.Relations(node)
	db, versions, err := s.catalog.Snapshot(names)
	if err != nil {
		return nil, &httpError{status: http.StatusNotFound, msg: err.Error()}
	}
	optimized := query.PushDown(node, db)
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pq := &preparedQuery{
		optimized: optimized,
		canonical: query.Canonical(optimized),
		names:     names,
		db:        db,
		versions:  versions,
		workers:   workers,
	}
	if req.Trace {
		pq.span = obs.NewSpan("")
	}
	return pq, nil
}

// RunQueryCtx is the evaluation path of POST /query, exposed for tests:
// parse → snapshot catalog versions → push down selections → cache
// lookup → evaluation, encoded block by block → cache store. A hit does
// no work per tuple: the cache holds the encoded result. With req.Trace
// the evaluation runs under a span tree and the response carries its
// snapshot; a traced request skips the cache lookup, since a hit would
// have no execution to trace, but still stores the result it computes.
//
// A cache miss evaluates under the governance of evaluate (deadline,
// admission gate; a cancelled request never stores its truncated
// result) and the result-tuple budget: overflow answers 422 and is
// never cached. A result the wire cannot carry (a non-finite
// probability) answers 500 and is not cached either. Cache hits bypass
// the gate — they do no evaluation work. ElapsedMicros excludes the
// time spent encoding.
func (s *Server) RunQueryCtx(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	pq, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	canonical := pq.canonical

	resp := &QueryResult{
		Query:      canonical,
		Complexity: query.Classify(pq.optimized).String(),
		Inputs:     pq.versions,
	}
	s.metrics.queries.Inc()

	// LazyProb changes the payload (probabilities unvaluated), so it is
	// part of the canonical key half.
	keyQuery := canonical
	if req.LazyProb {
		keyQuery += "\x00lazy"
	}
	key := CacheKey(keyQuery, pq.versions)

	start := time.Now()
	if !req.NoCache && !req.Trace {
		if body, tuples, ok := s.cache.Get(key); ok {
			elapsed := time.Since(start)
			s.metrics.executeHist.Observe(elapsed)
			resp.Cached = true
			resp.ElapsedMicros = elapsed.Microseconds()
			resp.Result, resp.Tuples = body, tuples
			return resp, nil
		}
	}

	if err := s.evaluate(ctx, req, pq, func(cur *engine.StreamCursor) error {
		return s.encodeResult(cur, resp)
	}); err != nil {
		return nil, err
	}
	s.metrics.evaluations.Inc()
	if !req.NoCache {
		s.cache.Put(key, pq.names, resp.Result, resp.Tuples)
	}
	elapsed := time.Since(start) - resp.encoding
	s.metrics.executeHist.Observe(elapsed)
	resp.ElapsedMicros = elapsed.Microseconds()
	if pq.span != nil {
		resp.Trace = pq.span.Snapshot()
	}
	return resp, nil
}

// encodeResult is the drain of POST /query: it appends each block the
// cursor delivers to the result object, counting tuples against
// MaxResultTuples (overflow answers 422) and timing the encoding apart
// from the drain. The object is built in the pooled encoder's warm
// buffer and copied once into res.Result, an allocation of exactly its
// length, because the cache keeps it: growing a fresh buffer block by
// block instead would allocate and copy about four times the body.
func (s *Server) encodeResult(cur *engine.StreamCursor, res *QueryResult) error {
	e := getWireEncoder()
	defer e.release()
	b := core.GetBatch()
	defer core.PutBatch(b)

	limit := s.cfg.MaxResultTuples
	t0 := time.Now()
	e.relationHead(cur.Schema(), 0)
	res.encoding = time.Since(t0)
	n := 0
	for cur.NextBatch(b) {
		if limit > 0 && n+len(b.Tuples) > limit {
			return &httpError{status: http.StatusUnprocessableEntity,
				msg: fmt.Sprintf("result exceeds the server's maxResultTuples budget (%d); narrow the query or use /query/stream", limit)}
		}
		t0 := time.Now()
		err := e.rows(b.Tuples, n)
		res.encoding += time.Since(t0)
		if err != nil {
			return &httpError{status: http.StatusInternalServerError, msg: "result " + err.Error()}
		}
		n += len(b.Tuples)
	}
	t0 = time.Now()
	e.relationTail()
	res.Result, res.Tuples = bytes.Clone(e.buf), n
	res.encoding += time.Since(t0)
	return nil
}

// evaluate is the one evaluation lifecycle of the three query verbs;
// they differ only in drain, which consumes the cursor. It applies the
// effective deadline (queryContext), claims an evaluation slot (a full
// queue answers 429, a deadline fired while queued 504), plans the query
// (a plan error answers 422) and runs drain. A drain error is returned
// as it is. After a drain that returns nil the context is checked once,
// because a deadline or a vanished client ends the cursor like a
// complete result does: evalContextError reports the truncation. Every
// exit, a panicking drain's included, closes the cursor — stopping the
// shard producers — and releases the slot.
func (s *Server) evaluate(ctx context.Context, req QueryRequest, pq *preparedQuery, drain func(*engine.StreamCursor) error) error {
	qctx, cancel := s.queryContext(ctx, req)
	defer cancel()
	if err := s.gate.acquire(qctx); err != nil {
		return s.admissionError(err)
	}
	defer s.gate.release()
	if testHookEvalStart != nil {
		testHookEvalStart(qctx)
	}
	if pq.span != nil {
		s.metrics.traced.Inc()
	}
	// Catalog relations are validated and sorted at admission, so
	// evaluation never re-validates and skips the leaf sort.
	cur, err := engine.New(engine.Config{Workers: pq.workers}).CursorCtx(qctx, pq.optimized, pq.db,
		core.Options{AssumeSorted: true, LazyProb: req.LazyProb, Span: pq.span})
	if err != nil {
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	defer cur.Close()
	if err := drain(cur); err != nil {
		return err
	}
	if err := qctx.Err(); err != nil {
		return s.evalContextError(err)
	}
	return nil
}

// queryContext applies the effective evaluation deadline: the request's
// timeoutMillis tightened by — never exceeding — the server's
// QueryTimeout. Without either, the caller's context passes through
// untouched.
func (s *Server) queryContext(ctx context.Context, req QueryRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if req.TimeoutMillis > 0 {
		rd := time.Duration(req.TimeoutMillis) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// evalContextError maps a context failure observed after evaluation: a
// fired deadline is 504 (counted), a client cancellation stays a plain
// 500 — the client is gone and will not read the status anyway. A
// stream that already sent its 200 ends with the message in its trailer.
func (s *Server) evalContextError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.queriesTimedOut.Inc()
		return &httpError{status: http.StatusGatewayTimeout, msg: "query deadline exceeded"}
	}
	return &httpError{status: http.StatusInternalServerError, msg: "request cancelled"}
}

// testHookEvalStart, when non-nil, runs after a query passes the
// admission gate and before the engine starts, on every query verb —
// the seam the overload, deadline and panic tests use to hold slots
// occupied or to blow up evaluation.
var testHookEvalStart func(ctx context.Context)

// writeEncoded runs encode against a pooled wire encoder, charging the
// encode-phase histogram, and writes the bytes as a 200 JSON body. The
// whole body is encoded before the status line goes out, so a value
// JSON cannot carry (a non-finite probability) is still a clean 500.
func (s *Server) writeEncoded(w http.ResponseWriter, encode func(*wireEncoder) error) {
	e := getWireEncoder()
	defer e.release()
	t0 := time.Now()
	err := encode(e)
	s.metrics.encodeHist.Observe(time.Since(t0))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.buf) // write errors mean a gone client; nothing to do
}

// httpError carries a status code through the service layer, plus an
// optional Retry-After hint in seconds (shed and degraded responses).
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

// --- handlers ---

// buildVersion resolves the module build identity once: version and VCS
// revision from runtime/debug.ReadBuildInfo (available since the binary
// is built from module sources), "unknown" fields otherwise.
var buildVersion = func() (v struct{ Version, Revision string }) {
	v.Version, v.Revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		v.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			v.Revision = s.Value
		}
	}
	return v
}()

// handleHealthz reports liveness plus the degraded-store state. The
// status code stays 200 even while degraded — reads are still served,
// and a load balancer that wants to drain writers should key on the
// status field, not kill a node that is serving queries fine.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":        "ok",
		"relations":     s.catalog.Len(),
		"uptimeSec":     int64(time.Since(s.started).Seconds()),
		"goVersion":     runtime.Version(),
		"buildVersion":  buildVersion.Version,
		"buildRevision": buildVersion.Revision,
	}
	if cause := s.storeDegraded(); cause != nil {
		body["status"] = "degraded"
		body["degradedReason"] = cause.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleListRelations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.catalog.List()})
}

func (s *Server) handlePutRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var rj RelationJSON
	if he := decodeBody(w, r, maxRelationBody, &rj); he != nil {
		writeError(w, he.status, he.msg)
		return
	}
	rel, err := decodeRows(rj, name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	version, existed, err := s.admitRelation(name, rel)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{
		"name": name, "version": version, "tuples": rel.Len(),
	})
}

func (s *Server) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel, version, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown relation %q", name))
		return
	}
	s.writeEncoded(w, func(e *wireEncoder) error {
		if err := e.relation(rel, version); err != nil {
			return fmt.Errorf("relation %q: %w", name, err)
		}
		e.buf = append(e.buf, '\n')
		return nil
	})
}

func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, invalidated, err := s.dropRelation(name)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown relation %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": name, "dropped": true, "invalidatedCacheEntries": invalidated,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel, version, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown relation %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    name,
		"version": version,
		"stats":   relation.ComputeStats(rel),
	})
}

// handleQuery writes the POST /query body as the envelope, the encoded
// result as RunQueryCtx returned it (a cache hit's stored bytes), and the
// tail; the encode phase is the result's encoding plus the envelope's.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if he := decodeBody(w, r, MaxQueryBodyBytes, &req); he != nil {
		writeError(w, he.status, he.msg)
		return
	}
	res, err := s.RunQueryCtx(r.Context(), req)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	e := getWireEncoder()
	defer e.release()
	t0 := time.Now()
	e.queryHead(res)
	head := len(e.buf)
	err = e.queryTail(res)
	s.metrics.encodeHist.Observe(res.encoding + time.Since(t0))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.buf)+len(res.Result)))
	w.WriteHeader(http.StatusOK)
	for _, p := range [...][]byte{e.buf[:head], res.Result, e.buf[head:]} {
		if _, err := w.Write(p); err != nil {
			return // a gone client; nothing to do
		}
	}
}

// ExplainResponse is the body of POST /query/explain: the optimized
// plan's identity plus the full per-operator trace of one evaluation —
// no result payload. The server drains the cursor plan and discards the
// tuples, so explaining a huge result costs no materialization or
// encoding, on either side of the wire.
type ExplainResponse struct {
	Query         string         `json:"query"`
	Complexity    string         `json:"complexity"`
	Inputs        []RelVersion   `json:"inputs"`
	Workers       int            `json:"workers"`
	Tuples        int64          `json:"tuples"`
	ElapsedMicros int64          `json:"elapsedMicros"`
	Trace         *obs.SpanStats `json:"trace"`
}

// handleQueryExplain evaluates the query with tracing forced on and
// returns only the plan identity and stats tree. The cache is bypassed
// in both directions: a cached result has no execution to trace, and
// the drained stream is never materialized, so there is nothing to
// store.
func (s *Server) handleQueryExplain(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if he := decodeBody(w, r, MaxQueryBodyBytes, &req); he != nil {
		writeError(w, he.status, he.msg)
		return
	}
	req.Trace = true // the trace is the answer
	pq, err := s.prepare(req)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	var (
		tuples  int64
		elapsed time.Duration
	)
	if err := s.evaluate(r.Context(), req, pq, func(cur *engine.StreamCursor) error {
		s.metrics.explains.Inc()
		start := time.Now()
		b := core.GetBatch()
		for cur.NextBatch(b) {
			tuples += int64(len(b.Tuples))
		}
		core.PutBatch(b)
		elapsed = time.Since(start)
		s.metrics.executeHist.Observe(elapsed)
		return nil
	}); err != nil {
		// A drain the deadline stopped early would trace a partial
		// execution: the 504 replaces a misleading tree.
		writeErrStatus(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Query:         pq.canonical,
		Complexity:    query.Classify(pq.optimized).String(),
		Inputs:        pq.versions,
		Workers:       pq.workers,
		Tuples:        tuples,
		ElapsedMicros: elapsed.Microseconds(),
		Trace:         pq.span.Snapshot(),
	})
}

// writeErrStatus writes a service-layer error, mapping httpError to its
// status (emitting its Retry-After hint when set) and anything else to
// 500.
func writeErrStatus(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	}
	writeError(w, status, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = encodeJSON(w, v) // write errors mean a gone client; nothing to do
}

// encodeJSON writes v as one newline-terminated JSON value, in a single
// Write, with HTML escaping off — the form of every reflected value this
// server sends.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
