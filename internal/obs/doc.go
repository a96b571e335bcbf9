// Package obs is the observability layer of the TP execution stack:
// per-query execution traces, process-wide metric instruments and the
// request-scoped logging plumbing the HTTP service builds on.
//
// The package is deliberately dependency-free (standard library only) so
// every layer — core, query, engine, server — can instrument itself
// without import cycles.
//
// # Execution traces
//
// A Span is one node of a per-query execution trace: it mirrors one
// operator of the cursor plan (a scan, a selection, a set operation, a
// shard plan, the engine's shard concatenation) and accumulates that operator's
// counters — tuples and batches emitted, advancer windows popped and
// run-skip gallops taken, inclusive wall time and channel-stall time.
// Spans form a tree mirroring the plan; Snapshot freezes the tree into
// the JSON-serializable SpanStats returned by POST /query (trace: true),
// the /query/stream trailer and POST /query/explain.
//
// All Span counters are atomics: shard plans record into their spans
// from dedicated goroutines while the consumer may snapshot after an
// early Close, so plain fields would race. Tracing is strictly opt-in —
// when no Span is attached to core.Options the execution stack builds
// exactly the un-instrumented plan (no wrapper cursors, no time calls),
// which is how the ≤2% tracing-off overhead pin is kept.
//
// # Metrics
//
// Counter and Histogram are the two instrument kinds behind GET
// /metrics. Both are lock-free: a Counter is one atomic word, a
// Histogram a fixed array of atomic buckets on a log2 scale of
// microseconds (bucket i counts observations ≤ 2^i µs), so hot paths
// observe without contention and scrapes snapshot without stopping
// writers. WritePrometheus renders the Prometheus text exposition
// format; JSON snapshots carry the same data plus estimated quantiles.
//
// # Request logging
//
// WithRequestID / RequestID and WithLogger / Logger carry a request
// identifier and a request-scoped *slog.Logger through context into the
// engine's shard workers, so per-shard debug logs correlate with the
// HTTP request that spawned them.
package obs
