// Command tpserve runs the TP query service: an HTTP/JSON server with a
// versioned relation catalog, partition-parallel query evaluation and an
// LRU query-result cache (see internal/server and DESIGN.md).
//
// Usage:
//
//	tpserve -addr :8080 -rel a=bought.csv -rel c=stock.csv
//	tpserve -addr :8080 -gen r:100000:1000 -gen s:100000:1000
//	tpserve -addr :8080 -data-dir /var/lib/tpset
//
// The catalog is seeded from CSV files (-rel name=path.csv, repeatable)
// and/or generated synthetic relations (-gen name:tuples:facts,
// repeatable; §VII-B shapes). Further relations can be loaded at runtime
// with PUT /relations/{name}.
//
// Endpoints:
//
//	GET    /healthz              liveness, catalog size, build identity
//	GET    /metrics              counters + phase latency histograms
//	                             (JSON; Prometheus text on Accept: text/plain)
//	GET    /relations            relation names and versions
//	PUT    /relations/{name}     load or replace a relation (JSON);
//	                             with -data-dir, a 2xx means the admission
//	                             is WAL-fsynced: it survives kill -9
//	GET    /relations/{name}     dump a relation (JSON)
//	DELETE /relations/{name}     drop a relation (with -data-dir, durable
//	                             on 2xx like PUT)
//	GET    /stats/{name}         Table IV statistics
//	POST   /query                {"query":"c - (a | b)", "workers":8}
//	POST   /query/stream         same body; NDJSON stream (meta line,
//	                             one tuple per line, {"done":true} trailer),
//	                             flushed incrementally, result cache bypassed
//	POST   /query/explain        same body; runs the plan and returns the
//	                             per-operator trace, no result payload
//
// Durability (-data-dir): the directory holds one columnar segment file
// per relation plus a write-ahead log. Every mutation is appended to the
// WAL and fsynced before its HTTP response — the 2xx is the durability
// acknowledgement — while segment rewrites are batched and applied on a
// size threshold, on graceful shutdown (SIGINT/SIGTERM drains in-flight
// requests, then applies and fsyncs pending WAL records), and on startup
// replay after a crash. A restart
// against the same -data-dir reads and decodes the segments and serves
// bit-identical results without re-ingesting; CSV/-gen seeding then
// merely re-admits (and persists) the seed relations. Without -data-dir
// the catalog is memory-only and this contract does not apply.
//
// Robustness: per-query deadlines (-query-timeout, tightened per
// request with "timeoutMillis" → 504), bounded admission
// (-max-concurrent-queries / -max-queued-queries → 429 + Retry-After
// under overload), result budgets (-max-result-tuples → 422; streams
// abort with an NDJSON error trailer), and panic recovery (500 + stack
// to the structured log, never a dead process). When a WAL write fails
// — disk full, dying device — the store enters degraded read-only
// mode: mutations answer 503, reads keep serving the restored catalog,
// /healthz reports "degraded", and a background probe (-probe-interval)
// re-enables writes once the disk recovers.
//
// Query bodies accept "trace":true to get a per-operator execution
// trace in the response envelope (stream trailer for /query/stream).
// -log-level enables structured JSON request logs; -debug-addr serves
// net/http/pprof on a separate listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/faultfs"
	"github.com/tpset/tpset/internal/segment"
	"github.com/tpset/tpset/internal/server"
)

// repeatable collects repeated string flags.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var rels, gens repeatable
	flag.Var(&rels, "rel", "name=path.csv: seed the catalog from a CSV file (repeatable)")
	flag.Var(&gens, "gen", "name:tuples:facts: seed a synthetic §VII-B relation (repeatable)")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "default worker budget per query (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", server.DefaultCacheSize, "result-cache capacity in entries (negative disables)")
		seed      = flag.Int64("seed", 1, "generator seed (-gen)")
		logLevel  = flag.String("log-level", "", "enable JSON request logs to stderr at this level: debug|info|warn|error (empty disables)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof debug endpoints on this address (empty disables)")
		dataDir   = flag.String("data-dir", "", "durable segment directory: restore the catalog from it at startup and WAL every mutation (empty = memory-only)")

		queryTimeout  = flag.Duration("query-timeout", 0, "per-query evaluation deadline; requests can tighten it with timeoutMillis but never exceed it (0 = none)")
		maxConcurrent = flag.Int("max-concurrent-queries", 0, "queries evaluating at once (0 = 4x GOMAXPROCS, negative = unlimited)")
		maxQueued     = flag.Int("max-queued-queries", 0, "queries waiting for an evaluation slot before 429 (0 = 4x the concurrency bound, negative = no queue)")
		maxTuples     = flag.Int("max-result-tuples", 0, "result-size budget per query: overflow answers 422, streams abort with an error trailer (0 = unlimited)")
		probeInterval = flag.Duration("probe-interval", server.DefaultProbeInterval, "degraded-store recovery probe cadence (with -data-dir)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: slowloris bound on request headers")
		readTimeout       = flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout: full-request-read bound, sized for 256MiB relation PUTs")
		writeTimeout      = flag.Duration("write-timeout", 0, "http.Server WriteTimeout; 0 (the default) keeps long NDJSON streams alive — per-query work is bounded by -query-timeout instead")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		maxHeaderBytes    = flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")

		chaosENOSPC = flag.String("chaos-enospc-file", "", "fault injection: while this file exists, every store write fails with a no-space error (chaos/CI only)")
	)
	flag.Parse()

	cacheSize := *cache
	if cacheSize == 0 {
		cacheSize = -1 // flag 0 means "no cache"; Config 0 means "default"
	}
	var logger *slog.Logger
	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fatalf("-log-level %q: want debug|info|warn|error", *logLevel)
		}
		logger = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		CacheSize:       cacheSize,
		Logger:          logger,
		QueryTimeout:    *queryTimeout,
		MaxConcurrent:   *maxConcurrent,
		MaxQueued:       *maxQueued,
		MaxResultTuples: *maxTuples,
	})

	var store *segment.Store
	if *dataDir != "" {
		var err error
		if *chaosENOSPC != "" {
			// Chaos lane: the injector fails every mutating operation
			// with ENOSPC while the sentinel file exists, so CI can drive
			// the whole disk-full → degraded → recovered arc end to end
			// (touch the file, watch writes 503, remove it, watch the
			// probe re-arm) without filling a real disk.
			fmt.Fprintf(os.Stderr, "tpserve: CHAOS: writes fail with ENOSPC while %s exists\n", *chaosENOSPC)
			in := faultfs.NewInjector(faultfs.OS{})
			in.FailWhileExists(*chaosENOSPC, faultfs.OpMutate, faultfs.ErrNoSpace)
			store, err = segment.OpenStoreFS(*dataDir, in)
		} else {
			store, err = segment.OpenStore(*dataDir)
		}
		if err != nil {
			fatalf("opening data dir %s: %v", *dataDir, err)
		}
		if err := srv.AttachStore(store); err != nil {
			fatalf("restoring from %s: %v", *dataDir, err)
		}
		fmt.Fprintf(os.Stderr, "tpserve: restored %d segment(s) from %s\n", store.SegmentCount(), *dataDir)
	}

	if *debugAddr != "" {
		// The pprof import registered its handlers on DefaultServeMux; the
		// API below serves its own mux, so the profiling surface is only
		// reachable through this (typically loopback-bound) listener.
		go func() {
			fmt.Fprintf(os.Stderr, "tpserve: pprof debug endpoints on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "tpserve: debug listener: %v\n", err)
			}
		}()
	}

	for _, spec := range rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fatalf("-rel %q: want name=path.csv", spec)
		}
		rel, err := csvio.ReadFileSorted(path, name)
		if err != nil {
			fatalf("loading %s: %v", spec, err)
		}
		if _, err := srv.Load(name, rel); err != nil {
			fatalf("loading %s: %v", spec, err)
		}
		fmt.Fprintf(os.Stderr, "tpserve: loaded %s (%d tuples) from %s\n", name, rel.Len(), path)
	}
	for i, spec := range gens {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			fatalf("-gen %q: want name:tuples:facts", spec)
		}
		n, err1 := strconv.Atoi(parts[1])
		facts, err2 := strconv.Atoi(parts[2])
		if parts[0] == "" || err1 != nil || err2 != nil || n < 1 || facts < 1 {
			fatalf("-gen %q: want name:tuples:facts with positive counts", spec)
		}
		rel := datagen.Synthetic(datagen.SyntheticConfig{
			Name: parts[0], NumTuples: n, NumFacts: facts,
			MaxLen: 3, MaxGap: 3, Seed: *seed + int64(i),
		})
		if _, err := srv.Load(parts[0], rel); err != nil {
			fatalf("generating %s: %v", spec, err)
		}
		fmt.Fprintf(os.Stderr, "tpserve: generated %s (%d tuples, %d facts)\n", parts[0], rel.Len(), facts)
	}

	fmt.Fprintf(os.Stderr, "tpserve: listening on %s (%d relations, cache %d entries)\n",
		*addr, len(srv.Relations()), *cache)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and —
	// with a data dir — apply and fsync pending WAL records so a clean
	// stop leaves no replay work for the next start. Acknowledged
	// mutations are durable either way (WAL fsync precedes the 2xx);
	// the flush only converges segments with the WAL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After a WAL write failure the store latches degraded (mutations
	// 503, reads keep serving); this probe re-arms writes once the disk
	// recovers. No-op without -data-dir.
	srv.StartRecoveryProbe(ctx, *probeInterval)
	// Timeout split: ReadHeaderTimeout/ReadTimeout/IdleTimeout bound
	// slow or idle clients, but WriteTimeout stays 0 by default — it
	// would kill long NDJSON streams mid-flight, and per-query work is
	// already bounded by -query-timeout, which aborts the stream with a
	// clean error trailer instead of a severed connection.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "tpserve: shutting down\n")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "tpserve: shutdown: %v\n", err)
		}
		if store != nil {
			if err := store.Close(); err != nil {
				fatalf("flushing data dir: %v", err)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpserve: "+format+"\n", args...)
	os.Exit(1)
}
