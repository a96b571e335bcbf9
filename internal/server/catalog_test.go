package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/relation"
)

func rel1(name, id string) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "Product"))
	r.AddBase(relation.NewFact("milk"), id, 1, 5, 0.5)
	return r
}

func TestCatalogVersionsMonotonic(t *testing.T) {
	c := NewCatalog()
	v1, existed, _ := c.Put("a", rel1("a", "a1"), nil)
	if existed {
		t.Fatal("first Put reported existed")
	}
	v2, _, _ := c.Put("b", rel1("b", "b1"), nil)
	if v1 >= v2 {
		t.Fatalf("versions not increasing: %d then %d", v1, v2)
	}
	v3, replaced, _ := c.Put("a", rel1("a", "a2"), nil) // replace bumps
	if !replaced {
		t.Fatal("replacing Put reported existed=false")
	}
	if v3 <= v2 {
		t.Fatalf("replace did not bump: %d after %d", v3, v2)
	}
	if _, v, ok := c.Get("a"); !ok || v != v3 {
		t.Fatalf("Get(a) = version %d, %v; want %d, true", v, ok, v3)
	}

	// Drop bumps the clock, so re-loading the same name never reuses a
	// version an earlier observer might have cached under.
	if existed, _ := c.Drop("a", nil); !existed {
		t.Fatal("Drop(a) = false")
	}
	if existed, _ := c.Drop("a", nil); existed {
		t.Fatal("second Drop(a) = true")
	}
	v4, _, _ := c.Put("a", rel1("a", "a3"), nil)
	if v4 <= v3 {
		t.Fatalf("post-drop reload reused version: %d after %d", v4, v3)
	}
}

func TestCatalogSnapshot(t *testing.T) {
	c := NewCatalog()
	va, _, _ := c.Put("a", rel1("a", "a1"), nil)
	vb, _, _ := c.Put("b", rel1("b", "b1"), nil)

	db, versions, err := c.Snapshot([]string{"b", "a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 2 {
		t.Fatalf("db has %d entries, want 2", len(db))
	}
	want := []RelVersion{{"a", va}, {"b", vb}}
	if len(versions) != 2 || versions[0] != want[0] || versions[1] != want[1] {
		t.Fatalf("versions = %v, want %v (sorted by name, deduplicated)", versions, want)
	}

	if _, _, err := c.Snapshot([]string{"a", "zz", "yy"}); err == nil {
		t.Fatal("Snapshot with unknown names: want error")
	} else if got := err.Error(); got != "unknown relation(s) yy, zz" {
		t.Fatalf("error = %q", got)
	}
}

func TestCatalogList(t *testing.T) {
	c := NewCatalog()
	c.Put("z", rel1("z", "z1"), nil)
	c.Put("a", rel1("a", "a1"), nil)
	l := c.List()
	if len(l) != 2 || l[0].Name != "a" || l[1].Name != "z" {
		t.Fatalf("List() = %v, want sorted [a z]", l)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d", c.Len())
	}
}

// TestFreshCatalogRelationPublishesOneRunIndex opens the first scans of a
// freshly admitted relation from 8 goroutines at once, as the first
// concurrent queries over it do. Each builds the relation's fact-run
// index or finds it built; all must end up with the one index the
// relation published (the -race lane checks the publication itself), and
// every scan must skip from it to the same row.
func TestFreshCatalogRelationPublishesOneRunIndex(t *testing.T) {
	r := relation.New(relation.NewSchema("r", "Product"))
	for f := 0; f < 64; f++ {
		for j := int64(0); j < 8; j++ {
			r.AddBase(relation.NewFact(fmt.Sprintf("p%03d", f)), fmt.Sprintf("r%d.%d", f, j), 2*j, 2*j+1, 0.5)
		}
	}
	c := NewCatalog()
	c.Put("r", r, nil)
	db, _, err := c.Snapshot([]string{"r"})
	if err != nil {
		t.Fatal(err)
	}
	rel := db["r"]
	target, ok := rel.Dict().ID("p040")
	if !ok {
		t.Fatal("admission did not bind the relation")
	}
	const readers = 8
	seen, landed := make([]*relation.Runs, readers), make([]int64, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			seen[i] = rel.Runs()
			scan := core.NewScanCursor(rel, nil)
			scan.SkipTo(int64(target), 4)
			b := core.NewBatch(1)
			if scan.NextBatch(b) {
				landed[i] = b.Fid[0]<<32 | b.Tuples[0].T.Ts
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range readers {
		if seen[i] == nil || seen[i] != seen[0] || seen[i] != rel.Runs() {
			t.Fatalf("reader %d saw index %p, reader 0 %p, the relation holds %p", i, seen[i], seen[0], rel.Runs())
		}
		if want := int64(target)<<32 | 4; landed[i] != want {
			t.Fatalf("reader %d landed on %#x, want fact p040 at time 4 (%#x)", i, landed[i], want)
		}
	}
}

// TestPutFlipsTheShardDecision pins that the sweep bound the engine
// sizes a plan by — kept on the left relation's run index between
// queries — follows the catalog: a PUT that replaces s moves r & s
// between the sequential and the sharded plan on the very next query.
// s "apart" holds r's facts at other times, so the sweep skips every
// run; s "meeting" holds them at the same times.
func TestPutFlipsTheShardDecision(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	gen := func(name string, seed int64, shift interval.Time) RelationJSON {
		rel := datagen.Synthetic(datagen.SyntheticConfig{
			Name: name, NumTuples: 6000, NumFacts: 60, MaxLen: 3, MaxGap: 3, Seed: seed,
		})
		for i := range rel.Tuples {
			rel.Tuples[i].T.Ts += shift
			rel.Tuples[i].T.Te += shift
		}
		return EncodeRelation(rel, 0)
	}
	put := func(name string, body RelationJSON) {
		if resp, msg := do(t, "PUT", ts.URL+"/relations/"+name, body); resp.StatusCode/100 != 2 {
			t.Fatalf("PUT %s: status %d: %s", name, resp.StatusCode, msg)
		}
	}
	root := func() string {
		resp, body := do(t, "POST", ts.URL+"/query/explain", QueryRequest{Query: "r & s"})
		var er ExplainResponse
		if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("explain: status %d, %v: %s", resp.StatusCode, err, body)
		}
		return er.Trace.Op
	}
	put("r", gen("put.r", 1, 0))
	apart, meeting := gen("put.apart", 2, 1<<20), gen("put.meeting", 2, 0)
	for i, s := range []RelationJSON{apart, meeting, apart, meeting} {
		put("s", s)
		for range 2 { // the second query is answered from the kept bound
			if got, sharded := root(), i%2 == 1; strings.HasPrefix(got, "concat[") != sharded {
				t.Fatalf("PUT %d (sharded %v): root op %q", i, sharded, got)
			}
		}
	}
}
