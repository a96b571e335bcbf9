// Package server is the multi-tier HTTP/JSON query service over the TP
// set-operation engines: the deployable front-end the ROADMAP's
// "heavy traffic" north star asks for, layered strictly on top of the
// public evaluation stack (parse → optimize → partition-parallel engine).
//
// It has three tiers:
//
//   - Catalog — a versioned, in-memory store of named TP relations behind
//     an RWMutex. Every load, replace or drop bumps a catalog-wide
//     monotonic version counter and stamps the relation, so any observable
//     catalog state has a distinct version vector. Relations inside the
//     catalog are immutable: a PUT replaces the pointer, never the tuples,
//     which is what makes lock-free concurrent reads by the evaluation
//     tier safe. With a segment store attached, a mutation is installed
//     only after its WAL record is durable, so nothing a query can read
//     is lost by a crash or refused by a failing disk.
//
//   - Cache — a bounded LRU over query results, keyed on the pair
//     (canonical query string, sorted input-relation versions); see
//     query.Canonical for the key's first half. An entry is the encoded
//     result object, so a repeated query over unchanged relations is
//     one write of stored bytes: no re-sweep and no work per tuple. A
//     miss encodes the plan's blocks as they arrive and caches the body;
//     a result the wire cannot carry is a 500 and is not cached. Bumping
//     any input relation's version changes the key and eagerly
//     invalidates exactly the entries that depended on that relation.
//     Entry, byte, hit, miss, eviction and invalidation counts are
//     exposed on GET /metrics.
//
//   - Handlers — PUT/GET/DELETE /relations/{name} (JSON wire codec
//     round-tripping lineage through the lineage parser),
//     POST /query (with per-request workers and lazyProb knobs; workers
//     outside [0, MaxWorkers] are rejected with 400),
//     POST /query/stream (NDJSON: meta line, one tuple per line, done
//     trailer; flushed a 1,024-row block at a time once the first block
//     is full, and sent whole with Content-Length when the stream ends
//     before that; result cache bypassed),
//     GET /stats/{name} (Table IV statistics), GET /relations,
//     GET /healthz and GET /metrics.
//
// Concurrency invariants: the catalog lock is held only for map access,
// never during evaluation; evaluation works on an immutable snapshot of
// relation pointers, so long sweeps never block loads (and vice versa). A
// query that races with a PUT keys its cache entry under the version
// vector it actually read, so the cache can never serve a result computed
// from relations the catalog no longer holds under the same versions.
package server
