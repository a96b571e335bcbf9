package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// wireRelation decodes result rows into a relation in the order they
// arrived on the wire, so the oracle check covers the stream's order too
// (DecodeRelation would sort them).
func wireRelation(t *testing.T, name string, attrs []string, rows []TupleJSON) *relation.Relation {
	t.Helper()
	rel := relation.New(relation.NewSchema(name, attrs...))
	for i, tj := range rows {
		tu, err := decodeTuple(tj, len(attrs))
		if err != nil {
			t.Fatalf("result row %d does not decode: %v", i, err)
		}
		rel.Tuples = append(rel.Tuples, tu)
	}
	return rel
}

// concatName is the result name by the rule operators used to apply one
// at a time: the left input's name, the operation's symbol and the right
// input's name, with a selection keeping its input's.
func concatName(n query.Node, db map[string]*relation.Relation) string {
	switch q := n.(type) {
	case *query.Rel:
		return db[q.Name].Schema.Name
	case *query.Select:
		return concatName(q.Input, db)
	case *query.SetOp:
		return concatName(q.Left, db) + q.Op.String() + concatName(q.Right, db)
	}
	panic(fmt.Sprintf("unknown node %T", n))
}

// cachedPair sends req to POST /query twice and returns the decoded
// second response, after checking that it is a cache hit whose result is
// byte-identical to the first response's. The first request traces when
// trace is set: a traced request skips the lookup, so it evaluates at its
// own worker budget even when another budget already cached the key, and
// it still stores what it computed.
func cachedPair(t *testing.T, ts *httptest.Server, req QueryRequest, trace bool, ctx string) QueryResponse {
	t.Helper()
	first := req
	first.Trace = trace
	_, raw1 := queryRaw(t, ts, first)
	qr, raw2 := queryRaw(t, ts, req)
	if !qr.Cached {
		t.Fatalf("%s: repeated /query was not served from the cache", ctx)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("%s: cached result differs from the evaluated one:\n%.300s\n%.300s", ctx, raw1, raw2)
	}
	return qr
}

// queryRaw is queryOnce that also returns the result object's bytes as
// they arrived.
func queryRaw(t *testing.T, ts *httptest.Server, req QueryRequest) (QueryResponse, []byte) {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/query", req)
	if resp.StatusCode != 200 {
		t.Fatalf("query %+v: %d %s", req, resp.StatusCode, body)
	}
	var qr QueryResponse
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return qr, raw.Result
}

// TestHTTPMatchesOracle drives the differential harness through the
// service: random catalogs admitted into a server, random query trees
// (rendered with query.Canonical) sent to POST /query and POST
// /query/stream at Workers 1/2/8 with eager and lazy valuation, and the
// decoded rows — in wire order — compared with the Def. 3 oracle. Every
// fourth trial is large enough that the engine shards it at its default
// thresholds; every third holds its relations' facts at different times
// (the temporal run-skipping case). The cache is on: each /query is sent
// twice, and the oracle checks the second, cached, response. Both
// endpoints name the result as operators named it one at a time.
func TestHTTPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 16; trial++ {
		sh := reftest.Shape{Relations: 2 + rng.Intn(2), MaxTuples: 120, Facts: 24, OffsetFacts: trial%2 == 0, OffsetTime: trial%3 == 1}
		if trial%4 == 3 {
			sh.MaxTuples, sh.Facts = 6000, 64
		}
		db := reftest.DB(rng, sh)
		srv := New(Config{})
		for name, r := range db {
			// Admission takes ownership (sorts, interns, binds): hand it
			// a copy and keep the generated relation for the oracle.
			if _, err := srv.Load(name, r.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		for i := 0; i < 3; i++ {
			tree := reftest.Tree(rng, query.DBKeys(db), 1+rng.Intn(4))
			_, isOp := tree.(*query.SetOp)
			name := concatName(tree, db)
			for _, workers := range []int{1, 2, 8} {
				req := QueryRequest{Query: query.Canonical(tree), Workers: workers, LazyProb: (i+workers)%2 == 0}
				ctx := fmt.Sprintf("trial %d %+v", trial, req)

				qr := cachedPair(t, ts, req, workers != 1, ctx)
				meta, rows, trailer := streamOnce(t, ts, req)
				if !trailer.Done || trailer.Tuples != len(rows) {
					t.Fatalf("%s: stream trailer %+v after %d rows", ctx, trailer, len(rows))
				}
				if qr.Result.Name != name || meta.Name != name {
					t.Fatalf("%s: result named %q on /query and %q on /query/stream, want %q", ctx, qr.Result.Name, meta.Name, name)
				}
				for endpoint, got := range map[string]*relation.Relation{
					"/query":        wireRelation(t, qr.Result.Name, qr.Result.Attrs, qr.Result.Tuples),
					"/query/stream": wireRelation(t, meta.Name, meta.Attrs, rows),
				} {
					if req.LazyProb {
						for j := range got.Tuples {
							if isOp && got.Tuples[j].Prob != 0 {
								t.Fatalf("%s %s: lazy row %d carries p = %v", ctx, endpoint, j, got.Tuples[j].Prob)
							}
						}
						got.ComputeProbs()
					}
					reftest.Check(t, ctx+" "+endpoint, got, tree, db)
				}
			}
		}
		ts.Close()
	}
}

// TestHTTPFig1MatchesOracle sends the paper's own queries over the
// Fig. 1 relations through both endpoints.
func TestHTTPFig1MatchesOracle(t *testing.T) {
	db, queries := reftest.Fig1()
	srv := New(Config{})
	for name, r := range db {
		if _, err := srv.Load(name, r.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, src := range queries {
		tree := query.MustParse(src)
		qr := queryOnce(t, ts, QueryRequest{Query: src})
		reftest.Check(t, src+" /query", wireRelation(t, qr.Result.Name, qr.Result.Attrs, qr.Result.Tuples), tree, db)
		meta, rows, _ := streamOnce(t, ts, QueryRequest{Query: src})
		reftest.Check(t, src+" /query/stream", wireRelation(t, meta.Name, meta.Attrs, rows), tree, db)
	}
}

// TestHTTPTimeSkipCasesMatchOracle sends the fixed shapes of temporal run
// skipping through both endpoints, over catalog relations (sorted, bound
// and projected at admission — the leaves the sweep gallops in place).
func TestHTTPTimeSkipCasesMatchOracle(t *testing.T) {
	cases, queries := reftest.TimeSkipCases()
	for _, tc := range cases {
		srv := New(Config{CacheSize: -1})
		for name, r := range tc.DB {
			if _, err := srv.Load(name, r.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		for i, src := range queries {
			tree := query.MustParse(src)
			req := QueryRequest{Query: src, Workers: 1 + i%2}
			ctx := fmt.Sprintf("%s: %+v", tc.Name, req)
			qr := queryOnce(t, ts, req)
			reftest.Check(t, ctx+" /query", wireRelation(t, qr.Result.Name, qr.Result.Attrs, qr.Result.Tuples), tree, tc.DB)
			meta, rows, _ := streamOnce(t, ts, req)
			reftest.Check(t, ctx+" /query/stream", wireRelation(t, meta.Name, meta.Attrs, rows), tree, tc.DB)
		}
		ts.Close()
	}
}
