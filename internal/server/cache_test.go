package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/relation"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	r := []byte(`{"name":"r"}`)
	c.Put("k1", []string{"a"}, r, 0)
	c.Put("k2", []string{"b"}, r, 0)
	if _, _, ok := c.Get("k1"); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.Put("k3", []string{"c"}, r, 0) // evicts k2
	if _, _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted as LRU")
	}
	if _, _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 should have survived (recently used)")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss", st)
	}
}

func TestCacheInvalidateRelationExact(t *testing.T) {
	c := NewCache(10)
	r := []byte(`{"name":"r"}`)
	c.Put("q1", []string{"a", "b"}, r, 0)
	c.Put("q2", []string{"b", "c"}, r, 0)
	c.Put("q3", []string{"c"}, r, 0)

	if n := c.InvalidateRelation("b"); n != 2 {
		t.Fatalf("InvalidateRelation(b) dropped %d, want 2", n)
	}
	if _, _, ok := c.Get("q1"); ok {
		t.Fatal("q1 depends on b, should be gone")
	}
	if _, _, ok := c.Get("q2"); ok {
		t.Fatal("q2 depends on b, should be gone")
	}
	if _, _, ok := c.Get("q3"); !ok {
		t.Fatal("q3 does not depend on b, should survive")
	}
	st := c.Stats()
	if st.Invalidations != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 invalidations, 0 evictions", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put("k", []string{"a"}, []byte(`{"name":"r"}`), 0)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache must not store")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 || st.Bytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheKeyShape(t *testing.T) {
	k := CacheKey("(a | b)", []RelVersion{{"a", 3}, {"b", 7}})
	if want := "(a | b)\x00a@3,b@7"; k != want {
		t.Fatalf("CacheKey = %q, want %q", k, want)
	}
	// Different versions yield different keys.
	k2 := CacheKey("(a | b)", []RelVersion{{"a", 4}, {"b", 7}})
	if k == k2 {
		t.Fatal("version bump must change the key")
	}
}

// TestCacheRePutUnderCapacityPressure re-puts existing keys while the
// cache sits exactly at capacity: the re-put must update the entry and
// its recency in place — Entries must not double-count, nothing may be
// evicted, and no list element may leak (list length stays equal to the
// map size).
func TestCacheRePutUnderCapacityPressure(t *testing.T) {
	c := NewCache(3)
	old := []byte(`{"name":"r1"}`)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []string{"a"}, old, 1)
	}

	// At capacity: re-put k0 with a fresh result and a different dep set.
	fresh := []byte(`{"name":"r2"}`)
	c.Put("k0", []string{"b"}, fresh, 2)

	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("stats after re-put = %+v, want 3 entries, 0 evictions", st)
	}
	if c.ll.Len() != len(c.entries) {
		t.Fatalf("list %d vs map %d: leaked element", c.ll.Len(), len(c.entries))
	}
	if got, n, ok := c.Get("k0"); !ok || &got[0] != &fresh[0] || n != 2 {
		t.Fatal("re-put did not replace the stored result")
	}

	// Recency was refreshed: adding one more evicts k1 (now LRU), not k0.
	c.Put("k3", []string{"a"}, old, 1)
	if _, _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 was evicted despite being most recently re-put")
	}
	if _, _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been the LRU eviction victim")
	}

	// The dependency set was replaced, not merged or kept: invalidating
	// the old dep leaves k0 alone, invalidating the new one drops it.
	if n := c.InvalidateRelation("a"); n != 2 { // k2, k3
		t.Fatalf("InvalidateRelation(a) dropped %d, want 2", n)
	}
	if _, _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 no longer depends on a, must survive")
	}
	if n := c.InvalidateRelation("b"); n != 1 {
		t.Fatalf("InvalidateRelation(b) dropped %d, want 1", n)
	}
	if c.ll.Len() != len(c.entries) {
		t.Fatalf("list %d vs map %d after invalidations", c.ll.Len(), len(c.entries))
	}
}

func TestCachePutOverCapacitySequence(t *testing.T) {
	c := NewCache(3)
	r := []byte(`{"name":"r"}`)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), []string{"a"}, r, 0)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 7 {
		t.Fatalf("stats = %+v, want 3 entries, 7 evictions", st)
	}
	// The three most recent survive.
	for i := 7; i < 10; i++ {
		if _, _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d should be cached", i)
		}
	}
}

// TestCacheBytesTrackLiveEntries pins CacheStats.Bytes to the sum of the
// resident bodies' lengths after every kind of change: put, overwrite
// (longer and shorter), LRU eviction and invalidation.
func TestCacheBytesTrackLiveEntries(t *testing.T) {
	c := NewCache(3)
	live := map[string][]byte{}
	check := func(step string) {
		t.Helper()
		want := int64(0)
		for k, body := range live {
			got, _, ok := c.Get(k)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("%s: entry %s = %q, %v; want %q", step, k, got, ok, body)
			}
			want += int64(len(body))
		}
		if st := c.Stats(); st.Bytes != want || st.Entries != len(live) {
			t.Fatalf("%s: stats %+v, want %d bytes in %d entries", step, st, want, len(live))
		}
	}
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	c.Put("k1", []string{"a"}, body(10), 1)
	live["k1"] = body(10)
	c.Put("k2", []string{"b"}, body(20), 2)
	live["k2"] = body(20)
	check("put")
	c.Put("k1", []string{"a"}, body(35), 3)
	live["k1"] = body(35)
	check("overwrite with a longer body")
	c.Put("k2", []string{"a", "b"}, body(5), 1)
	live["k2"] = body(5)
	check("overwrite with a shorter body")
	// k3 fills the cache; refreshing k1 and k3 leaves k2 the least
	// recently used, so k4 evicts it.
	c.Put("k3", []string{"c"}, body(7), 1)
	live["k3"] = body(7)
	c.Get("k1")
	c.Get("k3")
	c.Put("k4", []string{"c"}, body(11), 1)
	delete(live, "k2")
	live["k4"] = body(11)
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", st)
	}
	check("eviction")
	if n := c.InvalidateRelation("c"); n != 2 {
		t.Fatalf("InvalidateRelation(c) dropped %d, want 2", n)
	}
	delete(live, "k3")
	delete(live, "k4")
	check("invalidation")
	c.InvalidateRelation("a")
	delete(live, "k1")
	check("empty")
}

// discardWriter is a ResponseWriter that keeps nothing, so that what a
// request allocates is the server's own.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCacheHitAllocatesPerRequestNotPerTuple pins that a POST /query cache
// hit does no work per tuple: served through the handler, a hit on a
// 10,000-row result allocates no more than a hit on a 100-row one, and
// both stay under one ceiling.
func TestCacheHitAllocatesPerRequestNotPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled encoders are reallocated")
	}
	const ceiling = 32 // measured (31) + 1
	s := New(Config{Workers: 1})
	for name, n := range map[string]int{"small": 100, "large": 10000} {
		r := relation.New(relation.NewSchema(name, "F"))
		for i := 0; i < n; i++ {
			r.AddBase(relation.NewFact(fmt.Sprintf("f%05d", i)), fmt.Sprintf("hit.%s%d", name, i), 0, 5, 0.5)
		}
		mustLoad(t, s, name, r)
	}
	h := s.Handler()
	allocs := map[string]float64{}
	for _, name := range []string{"small", "large"} {
		body := []byte(`{"query":"` + name + `"}`)
		w := &discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/query", nil)
		serve := func() {
			clear(w.h)
			w.n = 0
			req.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, req)
		}
		serve() // the miss that fills the cache
		missBytes := w.n
		hits := s.CacheStats().Hits
		allocs[name] = testing.AllocsPerRun(50, serve)
		// The responses differ in cached and elapsedMicros only.
		if got := s.CacheStats().Hits - hits; got < 50 || w.n < missBytes-8 || w.n > missBytes+8 {
			t.Fatalf("%s: %d hits, %d bytes per response after a %d-byte miss; want every request a hit of the same result", name, got, w.n, missBytes)
		}
	}
	if allocs["large"] > allocs["small"] || allocs["large"] > ceiling {
		t.Fatalf("a hit allocates %v times on a 100-row result and %v on a 10,000-row one; want at most the former and %d",
			allocs["small"], allocs["large"], ceiling)
	}
	t.Logf("allocations per hit: %v (100 rows), %v (10,000 rows)", allocs["small"], allocs["large"])
}

// TestQueryPathHoldsNoRelation pins that a POST /query miss leaves no
// relation behind: the package's code never calls core.Materialize, and
// a cache entry holds nothing that can point at a relation or a lineage
// forest.
func TestQueryPathHoldsNoRelation(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" && sel.Sel.Name == "Materialize" {
					t.Errorf("%s: calls core.%s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	allowed := map[reflect.Type]bool{
		reflect.TypeOf(""): true, reflect.TypeOf([]string(nil)): true,
		reflect.TypeOf([]byte(nil)): true, reflect.TypeOf(0): true,
	}
	entry := reflect.TypeOf(cacheEntry{})
	for i := 0; i < entry.NumField(); i++ {
		if f := entry.Field(i); !allowed[f.Type] {
			t.Errorf("cacheEntry.%s is a %v; an entry holds strings, bytes and a count", f.Name, f.Type)
		}
	}
}

// TestMetricsReportCacheBytes checks both expositions of the resident
// bytes against the one body a query cached.
func TestMetricsReportCacheBytes(t *testing.T) {
	s, ts := newTestServer(t)
	_, res := queryRaw(t, ts, QueryRequest{Query: "c - (a | b)"})
	want := int64(len(res))

	_, body := do(t, "GET", ts.URL+"/metrics", nil)
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Bytes != want || m.Cache.Entries != 1 || want == 0 {
		t.Fatalf("metrics cache %+v; want one entry of %d bytes", m.Cache, want)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	r.Header.Set("Accept", "text/plain")
	s.Handler().ServeHTTP(w, r)
	if line := fmt.Sprintf("\ntpset_cache_bytes %d\n", want); !strings.Contains(w.Body.String(), line) {
		t.Fatalf("Prometheus exposition lacks %q", line[1:])
	}
}
