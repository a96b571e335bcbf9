package bench

import (
	"fmt"
	"time"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/server"
)

// serveCacheSizes are the per-relation input sizes of the serve-cache
// sweep before scaling.
var serveCacheSizes = []int{25000, 50000, 100000, 200000}

// ServeCache measures the query service's result cache: the end-to-end
// service latency (parse → optimize → snapshot → evaluate → encode) of a
// cold POST /query against the latency of repeating the identical query
// on an unchanged catalog, which is served from the LRU cache without
// re-sweeping. The "cold" series uses NoCache to force evaluation every
// time; "cached" is a hit keyed on (canonical query, relation versions).
func ServeCache(cfg Config) Result {
	cold := Series{Approach: "cold"}
	cached := Series{Approach: "cached"}

	for _, base := range serveCacheSizes {
		n := cfg.scaled(base)
		x := float64(2 * n)

		srv := server.New(server.Config{Workers: parWorkerBudget(cfg), CacheSize: 8})
		r, s := datagen.FixedOverlapPair(n, parFacts(n), cfg.Seed)
		if _, err := srv.Load("r", r); err != nil {
			panic(fmt.Sprintf("bench: seeding serve-cache: %v", err))
		}
		if _, err := srv.Load("s", s); err != nil {
			panic(fmt.Sprintf("bench: seeding serve-cache: %v", err))
		}

		measureServe(&cold, x, cfg, srv, server.QueryRequest{Query: "r & s", NoCache: true}, false)
		// Warm the cache once (uncounted), then measure the hit.
		if _, err := srv.RunQuery(server.QueryRequest{Query: "r & s"}); err != nil {
			panic(fmt.Sprintf("bench: warming serve-cache: %v", err))
		}
		measureServe(&cached, x, cfg, srv, server.QueryRequest{Query: "r & s"}, true)
	}

	return Result{
		Name:     "serve-cache",
		Title:    "query service: cold evaluation vs result-cache hit, ∩Tp",
		XLabel:   "|r|+|s|",
		Series:   []Series{cold, cached},
		Scale:    cfg.Scale,
		Footnote: "RunQuery latency (evaluation or cache lookup; response encoding excluded); cache keyed on (canonical query, sorted relation versions)",
	}
}

// measureServe times one RunQuery and appends the cell, mirroring the
// budget semantics of measure.
func measureServe(s *Series, x float64, cfg Config, srv *server.Server, req server.QueryRequest, wantCached bool) {
	if over(*s, cfg.Budget) {
		s.Cells = append(s.Cells, Cell{X: x, Skipped: true})
		return
	}
	start := time.Now()
	resp, err := srv.RunQuery(req)
	d := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: serve-cache query: %v", err))
	}
	if resp.Cached != wantCached {
		panic(fmt.Sprintf("bench: serve-cache: cached = %v, want %v (cache keying broken?)", resp.Cached, wantCached))
	}
	s.Cells = append(s.Cells, Cell{X: x, Duration: d, Output: resp.Relation.Len()})
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "  %-8s %-10.0f %12s  out=%d\n",
			s.Approach, x, d.Round(time.Microsecond), resp.Relation.Len())
	}
}
