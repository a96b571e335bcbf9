package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// newTestServer builds a server seeded with the paper's Fig. 1 trio.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	a := relation.New(relation.NewSchema("a", "Product"))
	a.AddBase(relation.NewFact("milk"), "a1", 2, 10, 0.3)
	b := relation.New(relation.NewSchema("b", "Product"))
	b.AddBase(relation.NewFact("milk"), "b1", 4, 12, 0.4)
	c := relation.New(relation.NewSchema("c", "Product"))
	c.AddBase(relation.NewFact("milk"), "c1", 1, 14, 0.6)
	for name, r := range map[string]*relation.Relation{"a": a, "b": b, "c": c} {
		if _, err := s.Load(name, r); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHandlersTable(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantSub    string // substring of the response body
	}{
		{"healthz", "GET", "/healthz", nil, 200, `"status":"ok"`},
		{"metrics", "GET", "/metrics", nil, 200, `"cache"`},
		{"list relations", "GET", "/relations", nil, 200, `"name":"a"`},
		{"get relation", "GET", "/relations/a", nil, 200, `"lineage":"a1"`},
		{"get unknown relation", "GET", "/relations/nope", nil, 404, "unknown relation"},
		{"stats", "GET", "/stats/a", nil, 200, `"Cardinality":1`},
		{"stats unknown", "GET", "/stats/nope", nil, 404, "unknown relation"},
		{"delete unknown", "DELETE", "/relations/nope", nil, 404, "unknown relation"},
		{"query fig1", "POST", "/query", QueryRequest{Query: "c - (a | b)"}, 200, `"lineage":"c1∧¬a1"`},
		{"query canonicalized", "POST", "/query", QueryRequest{Query: "  c minus ((a union b)) "}, 200, `"query":"(c - (a | b))"`},
		{"query parse error", "POST", "/query", QueryRequest{Query: "c - ("}, 400, "error"},
		{"query unknown relation", "POST", "/query", QueryRequest{Query: "c - zz"}, 404, "unknown relation"},
		{"query bad json", "POST", "/query", "not-a-query-object", 400, "decoding body"},
		{"query negative workers", "POST", "/query", QueryRequest{Query: "a | b", Workers: -1}, 400, "workers -1 out of range"},
		{"query absurd workers", "POST", "/query", QueryRequest{Query: "a | b", Workers: MaxWorkers + 1}, 400, "out of range"},
		{"query max workers ok", "POST", "/query", QueryRequest{Query: "a | b", Workers: MaxWorkers}, 200, `"complexity"`},
		{"stream parse error", "POST", "/query/stream", QueryRequest{Query: "c - ("}, 400, "error"},
		{"stream unknown relation", "POST", "/query/stream", QueryRequest{Query: "c - zz"}, 404, "unknown relation"},
		{"stream negative workers", "POST", "/query/stream", QueryRequest{Query: "a | b", Workers: -7}, 400, "workers -7 out of range"},
		{"put bad body", "PUT", "/relations/x", "zzz", 400, "decoding body"},
		{"put bad tuple", "PUT", "/relations/x", RelationJSON{
			Attrs:  []string{"P"},
			Tuples: []TupleJSON{{Fact: []string{"m"}, Lineage: "x1", Ts: 5, Te: 5, Prob: 0.5}},
		}, 400, "empty interval"},
		{"put unreferenceable name", "PUT", "/relations/my-rel", RelationJSON{
			Attrs:  []string{"P"},
			Tuples: []TupleJSON{{Fact: []string{"m"}, Lineage: "x1", Ts: 1, Te: 5, Prob: 0.5}},
		}, 400, "invalid relation name"},
		{"put reserved-word name", "PUT", "/relations/union", RelationJSON{
			Attrs:  []string{"P"},
			Tuples: []TupleJSON{{Fact: []string{"m"}, Lineage: "x1", Ts: 1, Te: 5, Prob: 0.5}},
		}, 400, "invalid relation name"},
		{"put duplicate tuples", "PUT", "/relations/x", RelationJSON{
			Attrs: []string{"P"},
			Tuples: []TupleJSON{
				{Fact: []string{"m"}, Lineage: "x1", Ts: 1, Te: 5, Prob: 0.5},
				{Fact: []string{"m"}, Lineage: "x2", Ts: 3, Te: 8, Prob: 0.5},
			},
		}, 422, "duplicate fact"},
		{"put duplicate tuples out of order", "PUT", "/relations/x", RelationJSON{
			Attrs: []string{"P"},
			Tuples: []TupleJSON{
				{Fact: []string{"m"}, Lineage: "x3", Ts: 3, Te: 8, Prob: 0.5},
				{Fact: []string{"m"}, Lineage: "x4", Ts: 1, Te: 5, Prob: 0.5},
			},
		}, 422, `duplicate fact \"m\" over overlapping intervals [1,5) and [3,8)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := do(t, c.method, ts.URL+c.path, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, c.wantStatus, body)
			}
			if !strings.Contains(string(body), c.wantSub) {
				t.Fatalf("body %s does not contain %q", body, c.wantSub)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type %q", got)
			}
		})
	}
}

// TestStatsSaturateAtTheTimeDomainEdges pins GET /stats/{name} on
// tuples at both ends of the int64 time domain: a span wider than
// math.MaxInt64 points reads as math.MaxInt64 instead of wrapping
// negative, and the average duration does not wrap either.
func TestStatsSaturateAtTheTimeDomainEdges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	s, ts := newTestServer(t)
	whole := relation.New(relation.NewSchema("whole", "F"))
	whole.AddBase(relation.NewFact("x"), "whole1", lo, hi, 0.5)
	ends := relation.New(relation.NewSchema("ends", "F"))
	ends.AddBase(relation.NewFact("x"), "ends1", lo, lo+1, 0.5)
	ends.AddBase(relation.NewFact("x"), "ends2", hi-1, hi, 0.5)
	for _, r := range []*relation.Relation{whole, ends} {
		if _, err := s.Load(r.Schema.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name          string
		rng, min, max int64
		avg           float64
	}{
		{"whole", hi, hi, hi, hi},
		{"ends", hi, 1, 1, 1},
	} {
		resp, body := do(t, "GET", ts.URL+"/stats/"+c.name, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		var got struct{ Stats relation.Stats }
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		st := got.Stats
		if st.TimeRange != c.rng || st.MinDuration != c.min || st.MaxDuration != c.max || st.AvgDuration != c.avg {
			t.Errorf("%s: time range %d, durations %d..%d avg %v; want %d, %d..%d avg %v",
				c.name, st.TimeRange, st.MinDuration, st.MaxDuration, st.AvgDuration, c.rng, c.min, c.max, c.avg)
		}
	}
}

func TestPutGetDeleteLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	seeded := s.snapshotMetrics()
	rj := RelationJSON{
		Attrs: []string{"Product"},
		Tuples: []TupleJSON{
			{Fact: []string{"beer"}, Lineage: "d1", Ts: 1, Te: 6, Prob: 0.9},
		},
	}
	resp, body := do(t, "PUT", ts.URL+"/relations/d", rj)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT: %d %s", resp.StatusCode, body)
	}
	var put struct {
		Version uint64 `json:"version"`
		Tuples  int    `json:"tuples"`
	}
	if err := json.Unmarshal(body, &put); err != nil {
		t.Fatal(err)
	}
	if put.Tuples != 1 || put.Version == 0 {
		t.Fatalf("PUT reply %+v", put)
	}

	// Replace: 200, version bumps.
	resp, body = do(t, "PUT", ts.URL+"/relations/d", rj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second PUT: %d %s", resp.StatusCode, body)
	}
	var put2 struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &put2); err != nil {
		t.Fatal(err)
	}
	if put2.Version <= put.Version {
		t.Fatalf("replace did not bump version: %d then %d", put.Version, put2.Version)
	}
	// A PUT is an admission like Load: both count.
	m := s.snapshotMetrics()
	if m.Admissions-seeded.Admissions != 2 || m.TuplesAdmitted-seeded.TuplesAdmitted != 2 {
		t.Fatalf("two one-tuple PUTs counted %d admissions of %d tuples, want 2 of 2",
			m.Admissions-seeded.Admissions, m.TuplesAdmitted-seeded.TuplesAdmitted)
	}

	// GET returns the stored relation with its version.
	resp, body = do(t, "GET", ts.URL+"/relations/d", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("GET: %d %s", resp.StatusCode, body)
	}
	var got RelationJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != put2.Version || len(got.Tuples) != 1 || got.Tuples[0].Lineage != "d1" {
		t.Fatalf("GET reply %+v", got)
	}

	// Query it, then DELETE and observe the query now 404s.
	resp, _ = do(t, "POST", ts.URL+"/query", QueryRequest{Query: "d"})
	if resp.StatusCode != 200 {
		t.Fatalf("query d: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/relations/d", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, _ = do(t, "POST", ts.URL+"/query", QueryRequest{Query: "d"})
	if resp.StatusCode != 404 {
		t.Fatalf("query after delete: %d, want 404", resp.StatusCode)
	}
}

func queryOnce(t *testing.T, ts *httptest.Server, req QueryRequest) QueryResponse {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/query", req)
	if resp.StatusCode != 200 {
		t.Fatalf("query %+v: %d %s", req, resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// resultRelation decodes what RunQueryCtx returned through the wire
// format's decode side: json.Unmarshal into a RelationJSON, then
// DecodeRelation.
func resultRelation(t *testing.T, res *QueryResult) *relation.Relation {
	t.Helper()
	var rj RelationJSON
	if err := json.Unmarshal(res.Result, &rj); err != nil {
		t.Fatalf("result of %s does not unmarshal: %v", res.Query, err)
	}
	if len(rj.Tuples) != res.Tuples {
		t.Fatalf("result of %s: %d tuples on the wire, QueryResult.Tuples = %d", res.Query, len(rj.Tuples), res.Tuples)
	}
	rel, err := DecodeRelation(rj, "")
	if err != nil {
		t.Fatalf("result of %s does not decode: %v", res.Query, err)
	}
	return rel
}

func TestQueryCacheHitAndSkipReevaluation(t *testing.T) {
	s, ts := newTestServer(t)

	r1 := queryOnce(t, ts, QueryRequest{Query: "c - (a | b)"})
	if r1.Cached {
		t.Fatal("first run must be a miss")
	}
	evalsAfterCold := s.metrics.evaluations.Load()

	// Same query, different spelling: canonicalization makes it the same
	// cache entry; the engine must not run again.
	r2 := queryOnce(t, ts, QueryRequest{Query: "c minus (a union b)"})
	if !r2.Cached {
		t.Fatal("repeat on unchanged relations must be a cache hit")
	}
	if s.metrics.evaluations.Load() != evalsAfterCold {
		t.Fatal("cache hit re-evaluated the query")
	}
	if fmt.Sprint(r1.Result) != fmt.Sprint(r2.Result) {
		t.Fatalf("cached result differs:\n%v\n%v", r1.Result, r2.Result)
	}
	if fmt.Sprint(r1.Inputs) != fmt.Sprint(r2.Inputs) {
		t.Fatalf("version vectors differ: %v vs %v", r1.Inputs, r2.Inputs)
	}

	st := s.CacheStats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 hit, 1 entry", st)
	}
}

func TestQueryCacheInvalidationOnVersionBump(t *testing.T) {
	s, ts := newTestServer(t)

	// Warm two entries: one over {a,b,c}, one over {c} alone.
	queryOnce(t, ts, QueryRequest{Query: "c - (a | b)"})
	queryOnce(t, ts, QueryRequest{Query: "c & c"})
	if st := s.CacheStats(); st.Entries != 2 {
		t.Fatalf("expected 2 warm entries, have %+v", st)
	}

	// Replace a: only the entry depending on a is invalidated.
	rj := RelationJSON{
		Attrs:  []string{"Product"},
		Tuples: []TupleJSON{{Fact: []string{"milk"}, Lineage: "a9", Ts: 2, Te: 6, Prob: 0.8}},
	}
	resp, body := do(t, "PUT", ts.URL+"/relations/a", rj)
	if resp.StatusCode != 200 {
		t.Fatalf("PUT a: %d %s", resp.StatusCode, body)
	}
	st := s.CacheStats()
	if st.Entries != 1 || st.Invalidations != 1 {
		t.Fatalf("after bump: %+v, want exactly the dependent entry dropped", st)
	}

	// The c-only entry still hits; the a-dependent query re-evaluates
	// against the NEW version of a and yields the new lineage.
	if r := queryOnce(t, ts, QueryRequest{Query: "c & c"}); !r.Cached {
		t.Fatal("independent entry must survive the bump")
	}
	r := queryOnce(t, ts, QueryRequest{Query: "c - (a | b)"})
	if r.Cached {
		t.Fatal("dependent entry must have been invalidated")
	}
	found := false
	for _, tup := range r.Result.Tuples {
		if strings.Contains(tup.Lineage, "a9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("re-evaluation did not see the new relation: %+v", r.Result.Tuples)
	}
}

func TestQueryLazyProbKnob(t *testing.T) {
	_, ts := newTestServer(t)
	lazy := queryOnce(t, ts, QueryRequest{Query: "c - (a | b)", LazyProb: true})
	for _, tup := range lazy.Result.Tuples {
		if tup.Prob != 0 {
			t.Fatalf("lazyProb result carries valuated probability: %+v", tup)
		}
	}
	eager := queryOnce(t, ts, QueryRequest{Query: "c - (a | b)"})
	if eager.Cached {
		t.Fatal("eager request must not hit the lazy entry (different key)")
	}
	saw := false
	for _, tup := range eager.Result.Tuples {
		if tup.Prob > 0 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("eager result has no probabilities")
	}
	// Lazy results round-trip too: formula marginals travel in varProbs.
	back, err := DecodeRelation(lazy.Result, "out")
	if err != nil {
		t.Fatal(err)
	}
	back.ComputeProbs()
	eagerBack, err := DecodeRelation(eager.Result, "out")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(back, eagerBack); d != "" {
		t.Fatalf("lazy+ComputeProbs differs from eager: %s", d)
	}
}

func TestQueryNoCache(t *testing.T) {
	s, ts := newTestServer(t)
	queryOnce(t, ts, QueryRequest{Query: "a | b", NoCache: true})
	queryOnce(t, ts, QueryRequest{Query: "a | b", NoCache: true})
	st := s.CacheStats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("NoCache touched the cache: %+v", st)
	}
	if s.metrics.evaluations.Load() != 2 {
		t.Fatalf("evaluations = %d, want 2", s.metrics.evaluations.Load())
	}
}

// TestHandlersBalanceThePool pins the pool discipline of the three
// evaluating handlers: every block a request takes from the batch pool
// is back by the time its response ends. do reads the body to EOF, and
// the response ends only once the handler has returned and its deferred
// puts have run; no server test runs in parallel, so the process-wide
// counters move for this request alone.
func TestHandlersBalanceThePool(t *testing.T) {
	_, ts := newTestServer(t)
	req := QueryRequest{Query: "c - (a | b)", NoCache: true}
	for _, path := range []string{"/query", "/query/stream", "/query/explain"} {
		gets0, puts0, _, _ := core.BatchPoolStats()
		if resp, body := do(t, "POST", ts.URL+path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, body)
		}
		gets, puts, _, _ := core.BatchPoolStats()
		if gets-gets0 != puts-puts0 {
			t.Fatalf("%s: %d gets vs %d puts", path, gets-gets0, puts-puts0)
		}
	}
}

// TestQueryPushesDownBySchema: the service pushes a selection into a set
// operation's right input under the name that input's schema gives the
// selected position — b(Y,X) is matched to a(X,Y) by position — so the
// answer is the query's as written, and the cache key (the optimized
// query) follows a schema change with the version.
func TestQueryPushesDownBySchema(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	a := relation.New(relation.NewSchema("a", "X", "Y"))
	a.AddBase(relation.NewFact("v", "w"), "a1", 1, 5, 0.5)
	if _, err := s.Load("a", a); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ battrs, plan string }{
		{"Y,X", "sigma[X='v'](a) | sigma[Y='v'](b)"},
		{"P,Q", "sigma[X='v'](a) | sigma[P='v'](b)"},
	} {
		b := relation.New(relation.NewSchema("b", strings.Split(tc.battrs, ",")...))
		b.AddBase(relation.NewFact("v", "w"), "b1", 1, 5, 0.4)
		if _, err := s.Load("b", b); err != nil {
			t.Fatal(err)
		}
		qr := queryOnce(t, ts, QueryRequest{Query: "sigma[X='v'](a | b)"})
		if want := query.Canonical(query.MustParse(tc.plan)); qr.Query != want || qr.Cached {
			t.Fatalf("b(%s): query %q (cached %v), want %q uncached", tc.battrs, qr.Query, qr.Cached, want)
		}
		got, err := DecodeRelation(qr.Result, "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || got.Tuples[0].Lineage.String() != "a1∨b1" {
			t.Fatalf("b(%s): result %v, want (v,w) with lineage a1∨b1", tc.battrs, got)
		}
	}
}
