package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
	"github.com/tpset/tpset/internal/segment"
)

// persistPair generates the same Table-III-shaped relation pair twice
// deterministically, so the heap-mode and durable-mode servers can each
// admit (and mutate: intern, sort, bind) their own copy.
func persistPair(t *testing.T) (r, s *relation.Relation) {
	t.Helper()
	return datagen.Pair(datagen.PairConfig{
		NumTuples: 2000, NumFacts: 50,
		MaxLenR: 9, MaxLenS: 5, MaxGap: 3, Seed: 7,
	})
}

func durableServer(t *testing.T, dir string) (*Server, *segment.Store) {
	t.Helper()
	st, err := segment.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	srv := New(Config{})
	if err := srv.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return srv, st
}

// A restart against a populated data dir must serve bit-identical query
// results to a heap-mode server that re-ingested the same inputs — the
// restored catalog is observationally invisible, across worker
// budgets, and the restart never re-ingests (segmentsRestored counts
// the recovered segments). The restored server's answer is also checked
// against the Def. 3 oracle over the inputs as generated.
func TestRestartServesBitIdenticalResults(t *testing.T) {
	dir := t.TempDir()

	heap := New(Config{})
	hr, hs := persistPair(t)
	mustLoad(t, heap, "r", hr)
	mustLoad(t, heap, "s", hs)

	// Populate the data dir through a durable server, then abandon the
	// store un-flushed — the kill -9 shape: admissions live only in the
	// WAL, replay at the next open turns them into segments.
	first, _ := durableServer(t, dir)
	dr, ds := persistPair(t)
	mustLoad(t, first, "r", dr)
	mustLoad(t, first, "s", ds)

	restarted, st2 := durableServer(t, dir)
	defer st2.Close()
	if got := restarted.snapshotMetrics().SegmentsRestored; got != 2 {
		t.Fatalf("SegmentsRestored = %d, want 2", got)
	}

	for _, q := range []string{"r & s", "r | s", "r - s", "(r - s) | (s - r)"} {
		for _, workers := range []int{1, 2, 8} {
			req := QueryRequest{Query: q, Workers: workers, NoCache: true}
			want, err := heap.RunQueryCtx(context.Background(), req)
			if err != nil {
				t.Fatalf("heap RunQueryCtx(%q, w=%d): %v", q, workers, err)
			}
			got, err := restarted.RunQueryCtx(context.Background(), req)
			if err != nil {
				t.Fatalf("restored RunQueryCtx(%q, w=%d): %v", q, workers, err)
			}
			reftest.Check(t, q, got.Relation, query.MustParse(q), map[string]*relation.Relation{"r": hr, "s": hs})
			wj, _ := json.Marshal(EncodeRelation(want.Relation, 0))
			gj, _ := json.Marshal(EncodeRelation(got.Relation, 0))
			if !bytes.Equal(wj, gj) {
				t.Fatalf("restart result diverged for %q workers=%d:\nheap     %.200s\nrestored %.200s",
					q, workers, wj, gj)
			}
		}
	}
}

// PUT and DELETE through the HTTP handlers are durable at the 2xx: a
// reopened data dir restores exactly the acknowledged state.
func TestHandlerMutationsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, _ := durableServer(t, dir)
	h := srv.Handler()

	put := func(name, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPut, "/relations/"+name, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	body := `{"attrs":["obj"],"tuples":[
		{"fact":["a"],"lineage":"i1","ts":0,"te":5,"p":0.5},
		{"fact":["b"],"lineage":"i2","ts":2,"te":9,"p":0.25}]}`
	if w := put("keep", body); w.Code != http.StatusCreated {
		t.Fatalf("PUT keep: %d %s", w.Code, w.Body)
	}
	if w := put("gone", body); w.Code != http.StatusCreated {
		t.Fatalf("PUT gone: %d %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodDelete, "/relations/gone", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE gone: %d %s", w.Code, w.Body)
	}

	// Abandon without flush; reopen replays the WAL.
	restarted, st2 := durableServer(t, dir)
	defer st2.Close()
	if _, _, ok := restarted.Relation("gone"); ok {
		t.Fatalf("dropped relation survived restart")
	}
	want, _, ok := srv.Relation("keep")
	if !ok {
		t.Fatalf("keep missing before restart")
	}
	got, _, ok := restarted.Relation("keep")
	if !ok {
		t.Fatalf("keep missing after restart")
	}
	if !relation.Equal(want, got) {
		t.Fatalf("restored relation differs: %s", relation.Diff(want, got))
	}
	if !got.Frozen() || got.FidCol() == nil {
		t.Fatalf("restored relation not frozen with its fid column")
	}
}

// Admitting a relation with novel facts rebuilds the catalog dictionary
// and rebinds the stored siblings; the store mirrors those rewrites, and
// even a crash before they apply restores both generations consistently.
func TestDictionaryRebuildPersists(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir)

	r1 := datagen.Synthetic(datagen.SyntheticConfig{Name: "olddict", NumTuples: 300, NumFacts: 20, MaxLen: 5, MaxGap: 2, Seed: 3})
	mustLoad(t, srv, "olddict", r1)
	// Twice the facts → novel facts → slow-path admission, which
	// replaces the stored olddict with a rebound clone.
	r2 := datagen.Synthetic(datagen.SyntheticConfig{Name: "newdict", NumTuples: 300, NumFacts: 40, MaxLen: 5, MaxGap: 2, Seed: 4})
	mustLoad(t, srv, "newdict", r2)
	if got, _, _ := srv.Relation("olddict"); got == r1 {
		t.Fatal("admitting newdict did not rebuild the dictionary")
	}

	restarted, st2 := durableServer(t, dir)
	for _, name := range []string{"olddict", "newdict"} {
		want, _, _ := srv.Relation(name)
		got, _, ok := restarted.Relation(name)
		if !ok || !relation.Equal(want, got) {
			t.Fatalf("relation %s lost or diverged across dictionary rebuild (ok=%v)", name, ok)
		}
	}
	// Both restored relations share one dictionary (healed or uniform).
	a, _, _ := restarted.Relation("olddict")
	b, _, _ := restarted.Relation("newdict")
	if a.Dict() == nil || a.Dict() != b.Dict() {
		t.Fatalf("restored relations not bound to one shared dictionary")
	}

	// Restore heals mixed generations, so the checks above hold even if
	// the rebound sibling never reaches disk. It must: once the first
	// store closes cleanly every segment carries the one dictionary, and
	// the next restore uses each stored fid column instead of healing.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("segment files %v (%v); want one per relation", paths, err)
	}
	var files []*segment.File
	for _, path := range paths {
		f, err := segment.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !slices.Equal(files[0].Keys, files[1].Keys) {
		t.Fatalf("segments %s and %s hold different dictionaries (%d vs %d keys): the rebound sibling was not persisted",
			paths[0], paths[1], len(files[0].Keys), len(files[1].Keys))
	}
}

func mustLoad(t *testing.T, s *Server, name string, rel *relation.Relation) {
	t.Helper()
	if _, err := s.Load(name, rel); err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
}
