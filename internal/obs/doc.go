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
// Each plan node is built with its own span and records into it: one
// Pull per pull (wall time, tuples, one batch), AddGallops where it
// answers a skip; no cursor wraps another to observe it. All Span
// counters are atomics: shard plans record into their spans from
// dedicated goroutines while the consumer may snapshot after an early
// Close, so plain fields would race. Tracing is strictly opt-in — when
// no Span is attached to core.Options every node of the plan carries a
// nil span and pays one nil check per pull and per skip, no time calls
// and no atomics; the standing benchmark's bench.trace_overhead_ratio
// reports what tracing on costs against off.
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
// NewRequestID mints a request identifier, and WithLogger / Logger
// carry a request-scoped *slog.Logger tagged with it through context
// into the engine's shard workers, so per-shard debug logs correlate
// with the HTTP request that spawned them.
package obs
