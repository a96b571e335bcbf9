package tpset_test

// Public-API tests of the query-service-facing surface: canonical query
// rendering, the JSON wire codec and the routes a relation enters by.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/segment"
	"github.com/tpset/tpset/internal/server"
)

func TestCanonicalQuery(t *testing.T) {
	q1 := tpset.MustParseQuery("c - (a | b)")
	q2 := tpset.MustParseQuery("  c  minus ((a union b)) ")
	c1, c2 := tpset.CanonicalQuery(q1), tpset.CanonicalQuery(q2)
	if c1 != c2 {
		t.Fatalf("spelling variants disagree: %q vs %q", c1, c2)
	}
	if c1 != "(c - (a | b))" {
		t.Fatalf("canonical = %q", c1)
	}
	if rt := tpset.CanonicalQuery(tpset.MustParseQuery(c1)); rt != c1 {
		t.Fatalf("not a fixpoint: %q then %q", c1, rt)
	}
}

func TestRelationJSONRoundTrip(t *testing.T) {
	a := tpset.NewRelation("bought", "Product")
	a.AddBase(tpset.F("milk"), "a1", 2, 10, 0.3)
	c := tpset.NewRelation("stock", "Product")
	c.AddBase(tpset.F("milk"), "c1", 1, 4, 0.6)
	out, err := tpset.Except(c, a)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := tpset.MarshalRelationJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tpset.UnmarshalRelationJSON(blob, "")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != out.Len() {
		t.Fatalf("cardinality %d, want %d", back.Len(), out.Len())
	}
	// The derived tuple c1∧¬a1 must survive with structure and exact
	// probability — the lineage re-parses rather than becoming opaque.
	back.Sort()
	last := back.Tuples[back.Len()-1]
	if got := last.Lineage.String(); got != "c1∧¬a1" {
		t.Fatalf("lineage = %q, want c1∧¬a1", got)
	}
	if got := last.ComputeProb(); got != 0.6*(1-0.3) {
		t.Fatalf("recomputed prob = %v, want 0.42", got)
	}
}

// TestUnmarshalRelationJSONRefusesDuplicates: two tuples of one fact
// over overlapping intervals are refused by the library's JSON decoder
// with exactly the text a PUT of the same body answers with 422.
func TestUnmarshalRelationJSONRefusesDuplicates(t *testing.T) {
	r := tpset.NewRelation("dup", "Product")
	r.AddBase(tpset.F("milk"), "dup1", 1, 5, 0.5)
	r.AddBase(tpset.F("milk"), "dup2", 3, 8, 0.5)
	_, err := tpset.UnmarshalRelationJSON(marshal(t, r), "")
	status, body := put(t, server.New(server.Config{}), r)
	var refusal struct{ Error string }
	if jerr := json.Unmarshal(body, &refusal); jerr != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("PUT: %d %s", status, body)
	}
	if err == nil || err.Error() != refusal.Error {
		t.Fatalf("UnmarshalRelationJSON: %v, want PUT's %q", err, refusal.Error)
	}
}

// TestCSVJSONCrossCodecProperty sends randomized base relations — rows
// shuffled across facts, several runs per fact, two-attribute facts
// whose values hold the fact key's separator and escape bytes — through
// every route into a plan: ReadCSV of WriteCSV, UnmarshalRelationJSON of
// MarshalRelationJSON, a PUT, Server.Load, and the restore of a restart
// from the data directory Load wrote. Every route must give the same
// wire bytes: the original's, in canonical order. The same relation with
// one more row over a row of its fact must be refused by CSV (after
// "csvio: "), PUT (422), Load and library JSON with one Def. 1 text.
func TestCSVJSONCrossCodecProperty(t *testing.T) {
	values := []string{"a", "b\x1fc", "\x1e", "d\x1e\x1f", "e"}
	for seed := int64(0); seed < 6; seed++ {
		orig := tpset.NewRelation("r", "A", "B")
		// Small pseudo-random relation, deterministic per seed: chains of
		// non-overlapping per-fact intervals, then shuffled.
		state := uint64(seed*2654435761 + 12345)
		next := func(n int64) int64 {
			state = state*6364136223846793005 + 1442695040888963407
			return int64(state>>33) % n
		}
		cursor := map[int64]int64{}
		for i := 0; i < 60; i++ {
			f := next(7)
			ts := cursor[f] + next(4)
			te := ts + 1 + next(6)
			cursor[f] = te
			p := 0.05 + float64(next(90))/100
			orig.AddBase(tpset.F(values[f%5], values[f/5]), fmt.Sprintf("v%d_%d", seed, i), ts, te, p)
		}
		for i := len(orig.Tuples) - 1; i > 0; i-- {
			j := next(int64(i + 1))
			orig.Tuples[i], orig.Tuples[j] = orig.Tuples[j], orig.Tuples[i]
		}
		sorted := orig.Clone()
		sorted.Sort()
		want := marshal(t, sorted)
		if bytes.Equal(want, marshal(t, orig)) {
			t.Fatalf("seed %d: the shuffled relation is in canonical order: the test shows nothing", seed)
		}
		for route, rel := range admitEverywhere(t, orig) {
			if got := marshal(t, rel); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: %s gives\n%s\nwant\n%s", seed, route, got, want)
			}
		}

		dup := orig.Clone()
		first := dup.Tuples[next(int64(dup.Len()))]
		dup.AddBase(first.Fact, fmt.Sprintf("v%d_dup", seed), first.T.Ts, first.T.Te, 0.5)
		wantErr := dup.ValidateDuplicateFree()
		if wantErr == nil {
			t.Fatalf("seed %d: the duplicate variant is duplicate-free", seed)
		}
		for route, text := range refuseEverywhere(t, dup) {
			if text != wantErr.Error() {
				t.Fatalf("seed %d: %s refuses with %q, want %q", seed, route, text, wantErr)
			}
		}
	}
}

func marshal(t *testing.T, r *tpset.Relation) []byte {
	t.Helper()
	blob, err := tpset.MarshalRelationJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// admitEverywhere returns what each route into a plan makes of rel,
// which it only reads.
func admitEverywhere(t *testing.T, rel *tpset.Relation) map[string]*tpset.Relation {
	t.Helper()
	out := map[string]*tpset.Relation{}
	var file bytes.Buffer
	if err := tpset.WriteCSV(&file, rel); err != nil {
		t.Fatal(err)
	}
	var err error
	if out["csv"], err = tpset.ReadCSV(&file, rel.Schema.Name); err != nil {
		t.Fatal(err)
	}
	if out["library json"], err = tpset.UnmarshalRelationJSON(marshal(t, rel), rel.Schema.Name); err != nil {
		t.Fatal(err)
	}
	heap := server.New(server.Config{})
	if status, body := put(t, heap, rel); status != http.StatusCreated {
		t.Fatalf("PUT: %d %s", status, body)
	}
	dir := t.TempDir()
	st, err := segment.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	durable := server.New(server.Config{})
	if err := durable.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Load(rel.Schema.Name, rel.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = segment.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	restarted := server.New(server.Config{})
	if err := restarted.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for route, srv := range map[string]*server.Server{"PUT": heap, "Load": durable, "restore": restarted} {
		if out[route], _, _ = srv.Relation(rel.Schema.Name); out[route] == nil {
			t.Fatalf("%s: no relation %s", route, rel.Schema.Name)
		}
	}
	return out
}

// refuseEverywhere returns the text each route refuses rel with, past
// the route's own prefix; a route that admits it fails the test.
func refuseEverywhere(t *testing.T, rel *tpset.Relation) map[string]string {
	t.Helper()
	out := map[string]string{}
	var file bytes.Buffer
	if err := tpset.WriteCSV(&file, rel); err != nil {
		t.Fatal(err)
	}
	_, err := tpset.ReadCSV(&file, rel.Schema.Name)
	if err == nil || !strings.HasPrefix(err.Error(), "csvio: ") {
		t.Fatalf("CSV: %v", err)
	}
	out["csv"] = strings.TrimPrefix(err.Error(), "csvio: ")
	if _, err = tpset.UnmarshalRelationJSON(marshal(t, rel), rel.Schema.Name); err == nil {
		t.Fatal("library json admitted a duplicate")
	}
	out["library json"] = err.Error()
	if _, err = server.New(server.Config{}).Load(rel.Schema.Name, rel.Clone()); err == nil {
		t.Fatal("Load admitted a duplicate")
	}
	out["Load"] = err.Error()
	status, body := put(t, server.New(server.Config{}), rel)
	var refusal struct{ Error string }
	if err := json.Unmarshal(body, &refusal); err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("PUT: %d %s", status, body)
	}
	out["PUT"] = refusal.Error
	return out
}

// put sends rel's wire form to srv as PUT /relations/{name}.
func put(t *testing.T, srv *server.Server, rel *tpset.Relation) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/relations/"+rel.Schema.Name, bytes.NewReader(marshal(t, rel)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
