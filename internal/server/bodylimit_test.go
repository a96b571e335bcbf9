package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/relation"
)

// rawPost sends a raw (non-JSON-marshalled) body so tests can exceed the
// byte limits without building gigantic Go values through json.Marshal
// twice.
func rawPost(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
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

// oversizedQueryBody is a syntactically plausible JSON body just beyond
// MaxQueryBodyBytes.
func oversizedQueryBody() []byte {
	pad := strings.Repeat("x", MaxQueryBodyBytes)
	return []byte(fmt.Sprintf(`{"query":%q}`, "a & b "+pad))
}

func TestQueryBodyLimit(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/query", "/query/stream"} {
		resp, body := rawPost(t, http.MethodPost, ts.URL+path, oversizedQueryBody())
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status %d, want 413 (body %.120s)", path, resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte("request body exceeds")) {
			t.Errorf("POST %s oversized: body %.120s does not mention the limit", path, body)
		}
		// A normal-sized request on the same server still works.
		resp, body = rawPost(t, http.MethodPost, ts.URL+path, []byte(`{"query":"a & c"}`))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s normal: status %d, want 200 (body %.120s)", path, resp.StatusCode, body)
		}
	}
}

// TestQueryBoundRefusedBeforePlanning: a 1 MiB query — an operator
// chain or a parenthesis nest — answers 400 on every query verb before
// any plan exists, and the whole request allocates less than 16 MiB; a
// query exactly at query.MaxNodes is evaluated, and one past it is
// refused.
func TestQueryBoundRefusedBeforePlanning(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	body := func(q string) []byte {
		b, err := json.Marshal(QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(path string, b []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return w
	}

	n := MaxQueryBodyBytes/2 - 16
	huge := map[string][]byte{
		"chain": body("a" + strings.Repeat("|b", n)),
		"nest":  body(strings.Repeat("(", n) + "a" + strings.Repeat(")", n)),
	}
	for _, path := range []string{"/query", "/query/stream", "/query/explain"} {
		for shape, b := range huge {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w := post(path, b)
			runtime.ReadMemStats(&m1)
			if w.Code != http.StatusBadRequest {
				t.Errorf("POST %s, 1 MiB %s: status %d, want 400 (body %.120s)", path, shape, w.Code, w.Body)
			}
			if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 16<<20 {
				t.Errorf("POST %s, 1 MiB %s: allocated %d bytes, want under 16 MiB", path, shape, alloc)
			}
		}
	}

	head := "a"
	if query.MaxNodes%2 == 0 {
		head = "sigma[Product='milk'](a)"
	}
	chain := head + strings.Repeat(" | b", (query.MaxNodes-1)/2)
	nest := strings.Repeat("(", query.MaxNodes) + "a" + strings.Repeat(")", query.MaxNodes)
	for q, past := range map[string]string{chain: chain + " | c", nest: "(" + nest + ")"} {
		if w := post("/query", body(q)); w.Code != http.StatusOK {
			t.Errorf("query at the bound: status %d, want 200 (body %.120s)", w.Code, w.Body)
		}
		if w := post("/query", body(past)); w.Code != http.StatusBadRequest {
			t.Errorf("query past the bound: status %d, want 400 (body %.120s)", w.Code, w.Body)
		}
	}
}

func TestPutRelationBodyLimit(t *testing.T) {
	// A tiny cap makes the limit testable without a 256 MiB payload.
	old := maxRelationBody
	maxRelationBody = 4 << 10
	defer func() { maxRelationBody = old }()

	_, ts := newTestServer(t)
	big := []byte(fmt.Sprintf(`{"attrs":["F"],"tuples":[{"fact":[%q],"lineage":"r1","ts":1,"te":2,"p":0.5}]}`,
		strings.Repeat("v", 8<<10)))
	resp, body := rawPost(t, http.MethodPut, ts.URL+"/relations/big", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413 (body %.120s)", resp.StatusCode, body)
	}
	resp, body = rawPost(t, http.MethodPut, ts.URL+"/relations/small",
		[]byte(`{"attrs":["F"],"tuples":[{"fact":["v"],"lineage":"r1","ts":1,"te":2,"p":0.5}]}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small PUT: status %d, want 201 (body %.120s)", resp.StatusCode, body)
	}
}

// TestCatalogSharedDictionary pins the catalog-level interning contract:
// every admitted relation is bound to one catalog-wide dictionary, a
// replace introducing new facts rebinds the others without bumping their
// versions, and snapshots stay internally dict-consistent.
func TestCatalogSharedDictionary(t *testing.T) {
	s, _ := newTestServer(t)
	db, _, err := s.catalog.Snapshot([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	d := db["a"].Dict()
	if d == nil {
		t.Fatal("catalog relation unbound after admission")
	}
	for name, r := range db {
		if r.Dict() != d {
			t.Fatalf("relation %q bound to a different dict", name)
		}
	}

	_, vsBefore, err := s.catalog.Snapshot([]string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	// Replace a with a relation holding a brand-new fact: the dictionary
	// must be rebuilt and b/c rebound, at unchanged versions.
	a2 := relation.New(relation.NewSchema("a", "Product"))
	a2.AddBase(relation.NewFact("bread"), "a9", 1, 5, 0.7)
	if _, err := s.Load("a", a2); err != nil {
		t.Fatal(err)
	}
	db2, vsAfter, err := s.catalog.Snapshot([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	d2 := db2["a"].Dict()
	if d2 == nil || d2 == d {
		t.Fatalf("dictionary not rebuilt for new facts (before %p, after %p)", d, d2)
	}
	for name, r := range db2 {
		if r.Dict() != d2 {
			t.Fatalf("relation %q not rebound to the new dict", name)
		}
	}
	for i, v := range vsBefore {
		if vsAfter[i+1].Name != v.Name || vsAfter[i+1].Version != v.Version {
			t.Fatalf("rebinding changed version of %q: %d vs %d", v.Name, v.Version, vsAfter[i+1].Version)
		}
	}

	// Admitting a relation whose facts are already known reuses the dict.
	a3 := relation.New(relation.NewSchema("d", "Product"))
	a3.AddBase(relation.NewFact("milk"), "d1", 1, 3, 0.2)
	if _, err := s.Load("d", a3); err != nil {
		t.Fatal(err)
	}
	db3, _, err := s.catalog.Snapshot([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	if db3["d"].Dict() != d2 {
		t.Fatal("known-fact admission rebuilt the dictionary")
	}
}
