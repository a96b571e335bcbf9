package server

import (
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
)

// Server metrics: every counter is an atomic instrument (obs.Counter /
// obs.Histogram), so the hot paths record lock-free and GET /metrics
// snapshots each instrument atomically — a point-in-time view that is
// never torn, no matter how hot the writers are. The snapshot is
// exposed twice from the same instruments: as JSON (the Metrics struct)
// and as Prometheus text exposition, negotiated on the Accept header.

// serverMetrics holds the server's atomic instruments.
type serverMetrics struct {
	queries     obs.Counter // POST /query requests admitted to evaluation or cache
	evaluations obs.Counter // queries actually evaluated (cache misses)
	streams     obs.Counter // POST /query/stream requests that started streaming
	explains    obs.Counter // POST /query/explain requests evaluated
	traced      obs.Counter // requests evaluated with tracing on

	bytesStreamed  obs.Counter // NDJSON payload bytes written to stream clients
	tuplesStreamed obs.Counter // result tuples shipped over /query/stream

	admissions     obs.Counter // relations admitted to the catalog (PUT or Load)
	tuplesAdmitted obs.Counter // tuples admitted across all admissions

	segmentsRestored obs.Counter // segments recovered from the data dir at startup

	panicsRecovered obs.Counter // handler panics converted to 500s / error trailers
	queriesTimedOut obs.Counter // queries killed by the evaluation deadline
	queriesShed     obs.Counter // queries refused with 429 (gate and queue full)

	parseHist   obs.Histogram // parse + optimize + catalog snapshot (prepare)
	executeHist obs.Histogram // evaluation (cache lookup or engine drain)
	encodeHist  obs.Histogram // wire encoding: one observation per /query or relation body, and per stream (its batches summed)
	streamHist  obs.Histogram // stream drain, meta line to trailer or abort; one observation per stream
}

// BatchPoolMetrics mirrors core.BatchPoolStats for the JSON body.
type BatchPoolMetrics struct {
	Gets   uint64 `json:"gets"`
	Puts   uint64 `json:"puts"`
	Misses uint64 `json:"misses"` // pool had to allocate fresh storage
	Drops  uint64 `json:"drops"`  // odd-capacity blocks rejected on return
}

// RuntimeMetrics are point-in-time process gauges.
type RuntimeMetrics struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapSysBytes   uint64 `json:"heapSysBytes"`
	NumGC          uint32 `json:"numGC"`
}

// PhaseMetrics are the per-phase latency histograms of the query paths.
type PhaseMetrics struct {
	Parse   obs.HistogramStats `json:"parse"`
	Execute obs.HistogramStats `json:"execute"`
	Encode  obs.HistogramStats `json:"encode"`
	Stream  obs.HistogramStats `json:"stream"`
}

// Metrics is the body of GET /metrics (JSON form).
type Metrics struct {
	Relations      int    `json:"relations"`
	CatalogClock   uint64 `json:"catalogClock"`
	Queries        uint64 `json:"queries"`
	Evaluations    uint64 `json:"evaluations"`
	Streams        uint64 `json:"streams"`
	Explains       uint64 `json:"explains"`
	TracedQueries  uint64 `json:"tracedQueries"`
	BytesStreamed  uint64 `json:"bytesStreamed"`
	TuplesStreamed uint64 `json:"tuplesStreamed"`
	Admissions     uint64 `json:"admissions"`
	TuplesAdmitted uint64 `json:"tuplesAdmitted"`
	// SegmentsRestored counts the on-disk segments recovered into the
	// catalog at startup (0 without -data-dir): the restart-durability
	// smoke asserts on it to prove a restart served from segments, not
	// re-ingestion.
	SegmentsRestored uint64 `json:"segmentsRestored"`
	// Robustness counters: panics converted to clean failures, queries
	// killed by their deadline, queries shed by the admission gate, WAL
	// write failures observed by the store, and the degraded latch.
	PanicsRecovered uint64 `json:"panicsRecovered"`
	QueriesTimedOut uint64 `json:"queriesTimedOut"`
	QueriesShed     uint64 `json:"queriesShed"`
	WALWriteErrors  uint64 `json:"walWriteErrors"`
	Degraded        bool   `json:"degraded"`
	DegradedReason  string `json:"degradedReason,omitempty"`
	// QueriesInflight / QueriesQueued are the admission gate's gauges:
	// evaluation slots held and callers waiting right now.
	QueriesInflight int              `json:"queriesInflight"`
	QueriesQueued   int64            `json:"queriesQueued"`
	Cache           CacheStats       `json:"cache"`
	BatchPool       BatchPoolMetrics `json:"batchPool"`
	// MarginalTexts is the table the wire encoder appends base tuples'
	// marginals from instead of formatting them per output row; counts
	// reach it once per encoded batch or relation.
	MarginalTexts lineage.MarginalTextStats `json:"marginalTexts"`
	Phases        PhaseMetrics              `json:"phases"`
	Runtime       RuntimeMetrics            `json:"runtime"`
	UptimeSec     int64                     `json:"uptimeSec"`
}

// snapshotMetrics reads every instrument atomically into the JSON body.
func (s *Server) snapshotMetrics() Metrics {
	gets, puts, news, drops := core.BatchPoolStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var degradedReason string
	degraded := s.storeDegraded()
	if degraded != nil {
		degradedReason = degraded.Error()
	}
	return Metrics{
		Relations:        s.catalog.Len(),
		CatalogClock:     s.catalog.Clock(),
		Queries:          s.metrics.queries.Load(),
		Evaluations:      s.metrics.evaluations.Load(),
		Streams:          s.metrics.streams.Load(),
		Explains:         s.metrics.explains.Load(),
		TracedQueries:    s.metrics.traced.Load(),
		BytesStreamed:    s.metrics.bytesStreamed.Load(),
		TuplesStreamed:   s.metrics.tuplesStreamed.Load(),
		Admissions:       s.metrics.admissions.Load(),
		TuplesAdmitted:   s.metrics.tuplesAdmitted.Load(),
		SegmentsRestored: s.metrics.segmentsRestored.Load(),
		PanicsRecovered:  s.metrics.panicsRecovered.Load(),
		QueriesTimedOut:  s.metrics.queriesTimedOut.Load(),
		QueriesShed:      s.metrics.queriesShed.Load(),
		WALWriteErrors:   s.storeWALErrors(),
		Degraded:         degraded != nil,
		DegradedReason:   degradedReason,
		QueriesInflight:  s.gate.inflight(),
		QueriesQueued:    s.gate.queuedNow(),
		Cache:            s.cache.Stats(),
		BatchPool:        BatchPoolMetrics{Gets: gets, Puts: puts, Misses: news, Drops: drops},
		MarginalTexts:    lineage.ReadMarginalTextStats(),
		Phases: PhaseMetrics{
			Parse:   s.metrics.parseHist.Snapshot(),
			Execute: s.metrics.executeHist.Snapshot(),
			Encode:  s.metrics.encodeHist.Snapshot(),
			Stream:  s.metrics.streamHist.Snapshot(),
		},
		Runtime: RuntimeMetrics{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: ms.HeapAlloc,
			HeapSysBytes:   ms.HeapSys,
			NumGC:          ms.NumGC,
		},
		UptimeSec: int64(time.Since(s.started).Seconds()),
	}
}

// handleMetrics negotiates the exposition format on Accept: Prometheus
// text when the client asks for text/plain or OpenMetrics (a Prometheus
// scraper's Accept header), the JSON body otherwise — so existing JSON
// consumers (the CLI, the benchmark harness, jq-based CI gates) keep
// working while a stock Prometheus scrape gets the text format without
// configuration.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPrometheus(r.Header.Get("Accept")) {
		s.writeMetricsProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// acceptsPrometheus reports whether the Accept header prefers the
// Prometheus text exposition over JSON: text/plain or OpenMetrics
// listed before any application/json entry.
func acceptsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch {
		case mt == "text/plain" || mt == "application/openmetrics-text":
			return true
		case mt == "application/json":
			return false
		}
	}
	return false
}

// writeMetricsProm renders every instrument in Prometheus text format.
// Metric names follow the Prometheus conventions: _total counters,
// _seconds histograms, plain gauges.
func (s *Server) writeMetricsProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	m := &s.metrics
	obs.WriteCounterProm(w, "tpset_queries_total", "POST /query requests admitted.", m.queries.Load())
	obs.WriteCounterProm(w, "tpset_evaluations_total", "Queries evaluated (cache misses).", m.evaluations.Load())
	obs.WriteCounterProm(w, "tpset_streams_total", "Streams started on POST /query/stream.", m.streams.Load())
	obs.WriteCounterProm(w, "tpset_explains_total", "POST /query/explain requests evaluated.", m.explains.Load())
	obs.WriteCounterProm(w, "tpset_traced_queries_total", "Requests evaluated with tracing on.", m.traced.Load())
	obs.WriteCounterProm(w, "tpset_stream_bytes_total", "NDJSON payload bytes written to stream clients.", m.bytesStreamed.Load())
	obs.WriteCounterProm(w, "tpset_stream_tuples_total", "Result tuples shipped over /query/stream.", m.tuplesStreamed.Load())
	obs.WriteCounterProm(w, "tpset_relation_admissions_total", "Relations admitted to the catalog.", m.admissions.Load())
	obs.WriteCounterProm(w, "tpset_relation_tuples_admitted_total", "Tuples admitted across all admissions.", m.tuplesAdmitted.Load())
	obs.WriteGaugeProm(w, "tpset_segments_restored", "On-disk segments recovered into the catalog at startup.", float64(m.segmentsRestored.Load()))

	obs.WriteCounterProm(w, "tpset_panics_recovered_total", "Handler panics converted to clean failures.", m.panicsRecovered.Load())
	obs.WriteCounterProm(w, "tpset_queries_timed_out_total", "Queries killed by the evaluation deadline.", m.queriesTimedOut.Load())
	obs.WriteCounterProm(w, "tpset_queries_shed_total", "Queries refused with 429 under overload.", m.queriesShed.Load())
	obs.WriteCounterProm(w, "tpset_wal_write_errors_total", "WAL append/fsync failures observed by the segment store.", s.storeWALErrors())
	degraded := 0.0
	if s.storeDegraded() != nil {
		degraded = 1.0
	}
	obs.WriteGaugeProm(w, "tpset_degraded", "1 while the store is in degraded read-only mode.", degraded)
	obs.WriteGaugeProm(w, "tpset_queries_inflight", "Evaluation slots currently held.", float64(s.gate.inflight()))
	obs.WriteGaugeProm(w, "tpset_queries_queued", "Queries currently waiting for an evaluation slot.", float64(s.gate.queuedNow()))

	cs := s.cache.Stats()
	obs.WriteCounterProm(w, "tpset_cache_hits_total", "Result-cache hits.", cs.Hits)
	obs.WriteCounterProm(w, "tpset_cache_misses_total", "Result-cache misses.", cs.Misses)
	obs.WriteCounterProm(w, "tpset_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	obs.WriteCounterProm(w, "tpset_cache_invalidations_total", "Result-cache entries invalidated by catalog mutations.", cs.Invalidations)
	obs.WriteGaugeProm(w, "tpset_cache_entries", "Result-cache resident entries.", float64(cs.Entries))
	obs.WriteGaugeProm(w, "tpset_cache_bytes", "Result-cache resident body bytes.", float64(cs.Bytes))

	gets, puts, news, drops := core.BatchPoolStats()
	obs.WriteCounterProm(w, "tpset_batch_pool_gets_total", "Batch-pool gets.", gets)
	obs.WriteCounterProm(w, "tpset_batch_pool_puts_total", "Batch-pool puts.", puts)
	obs.WriteCounterProm(w, "tpset_batch_pool_misses_total", "Batch-pool misses (fresh allocations).", news)
	obs.WriteCounterProm(w, "tpset_batch_pool_drops_total", "Odd-capacity blocks rejected on return.", drops)

	mt := lineage.ReadMarginalTextStats()
	obs.WriteGaugeProm(w, "tpset_marginal_text_slots_ready", "Variables whose marginal the wire encoder holds rendered.", float64(mt.Ready))
	obs.WriteGaugeProm(w, "tpset_marginal_text_bytes", "Bytes held by the marginal-text table (32 per variable slot).", float64(mt.Bytes))
	obs.WriteCounterProm(w, "tpset_marginal_text_hits_total", "Marginals appended from the marginal-text table.", mt.Hits)
	obs.WriteCounterProm(w, "tpset_marginal_text_misses_total", "Marginals the wire encoder formatted.", mt.Misses)

	m.parseHist.WritePrometheus(w, "tpset_query_parse_seconds", "Query parse, optimize and catalog-snapshot latency.")
	m.executeHist.WritePrometheus(w, "tpset_query_execute_seconds", "Query evaluation latency (cache lookup or engine drain).")
	m.encodeHist.WritePrometheus(w, "tpset_query_encode_seconds", "Wire-encoding time per response (per stream: summed over its batches).")
	m.streamHist.WritePrometheus(w, "tpset_query_stream_seconds", "Stream drain latency, meta line to trailer or abort.")

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	obs.WriteGaugeProm(w, "tpset_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	obs.WriteGaugeProm(w, "tpset_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	obs.WriteGaugeProm(w, "tpset_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(ms.HeapSys))
	obs.WriteGaugeProm(w, "tpset_relations", "Catalog relations.", float64(s.catalog.Len()))
	obs.WriteGaugeProm(w, "tpset_catalog_clock", "Catalog version clock.", float64(s.catalog.Clock()))
	obs.WriteGaugeProm(w, "tpset_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
}
