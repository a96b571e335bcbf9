package core_test

// White-box-ish tests of the window advancer itself: window sequences for
// hand-constructed boundary situations (gaps, fact-group transitions,
// coinciding endpoints, containment) — the places where Algorithm 1's
// pseudocode is subtle.

import (
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/relation"
)

type winWant struct {
	fact   string
	ts, te int64
	lr, ls string
}

func checkWindows(t *testing.T, r, s *relation.Relation, wants []winWant) {
	t.Helper()
	ws := core.Windows(r, s)
	if len(ws) != len(wants) {
		t.Fatalf("got %d windows %v, want %d", len(ws), ws, len(wants))
	}
	for i, w := range wants {
		g := ws[i]
		lr, ls := "null", "null"
		if g.LamR != nil {
			lr = g.LamR.String()
		}
		if g.LamS != nil {
			ls = g.LamS.String()
		}
		if g.Fact.Key() != w.fact || g.WinTs != w.ts || g.WinTe != w.te || lr != w.lr || ls != w.ls {
			t.Errorf("window %d: got %v, want (%s,[%d,%d),%s,%s)", i, g, w.fact, w.ts, w.te, w.lr, w.ls)
		}
	}
}

func mkRel(name string, rows ...[3]interface{}) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "F"))
	for i, row := range rows {
		fact := row[0].(string)
		ts := int64(row[1].(int))
		te := int64(row[2].(int))
		r.AddBase(relation.NewFact(fact), name+string(rune('a'+i)), ts, te, 0.5)
	}
	return r
}

// Gaps in both relations: windows skip uncovered ranges, never producing
// empty windows.
func TestAdvancerSkipsGaps(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 3}, [3]interface{}{"x", 8, 10})
	s := mkRel("s", [3]interface{}{"x", 20, 22})
	checkWindows(t, r, s, []winWant{
		{"x", 1, 3, "ra", "null"},
		{"x", 8, 10, "rb", "null"},
		{"x", 20, 22, "null", "sa"},
	})
}

// A new fact group must open at the smaller fact even when its start point
// is later in time than the other relation's next tuple.
func TestAdvancerFactGroupOrder(t *testing.T) {
	r := mkRel("r", [3]interface{}{"apple", 100, 110})
	s := mkRel("s", [3]interface{}{"banana", 1, 5})
	checkWindows(t, r, s, []winWant{
		{"apple", 100, 110, "ra", "null"},
		{"banana", 1, 5, "null", "sa"},
	})
}

// Both relations continue the current fact after a shared gap: the window
// reopens at the earlier upcoming start.
func TestAdvancerReopensAfterSharedGap(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 3}, [3]interface{}{"x", 10, 14})
	s := mkRel("s", [3]interface{}{"x", 1, 3}, [3]interface{}{"x", 12, 16})
	checkWindows(t, r, s, []winWant{
		{"x", 1, 3, "ra", "sa"},
		{"x", 10, 12, "rb", "null"},
		{"x", 12, 14, "rb", "sb"},
		{"x", 14, 16, "null", "sb"},
	})
}

// Containment: s inside r splits r's interval into three windows.
func TestAdvancerContainment(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 10})
	s := mkRel("s", [3]interface{}{"x", 4, 6})
	checkWindows(t, r, s, []winWant{
		{"x", 1, 4, "ra", "null"},
		{"x", 4, 6, "ra", "sa"},
		{"x", 6, 10, "ra", "null"},
	})
}

// Coinciding endpoints: tuples that start and end together yield exactly
// one window.
func TestAdvancerExactAlignment(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 3, 7})
	s := mkRel("s", [3]interface{}{"x", 3, 7})
	checkWindows(t, r, s, []winWant{{"x", 3, 7, "ra", "sa"}})
}

// An r tuple ending exactly where the next r tuple starts (adjacent
// chain), with s spanning both: windows split at the internal boundary.
func TestAdvancerAdjacentChain(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 5}, [3]interface{}{"x", 5, 9})
	s := mkRel("s", [3]interface{}{"x", 0, 10})
	checkWindows(t, r, s, []winWant{
		{"x", 0, 1, "null", "sa"},
		{"x", 1, 5, "ra", "sa"},
		{"x", 5, 9, "rb", "sa"},
		{"x", 9, 10, "null", "sa"},
	})
}

// Multiple fact groups interleaved across both relations, exercising the
// fact-transition logic repeatedly.
func TestAdvancerMultipleFactGroups(t *testing.T) {
	r := mkRel("r",
		[3]interface{}{"a", 1, 4},
		[3]interface{}{"c", 2, 5},
	)
	s := mkRel("s",
		[3]interface{}{"b", 3, 6},
		[3]interface{}{"c", 4, 8},
	)
	checkWindows(t, r, s, []winWant{
		{"a", 1, 4, "ra", "null"},
		{"b", 3, 6, "null", "sa"},
		{"c", 2, 4, "rb", "null"},
		{"c", 4, 5, "rb", "sb"},
		{"c", 5, 8, "null", "sb"},
	})
}

// One empty side: windows degrade to the other relation's tuples.
func TestAdvancerEmptySides(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 4})
	empty := relation.New(relation.NewSchema("e", "F"))
	checkWindows(t, r, empty, []winWant{{"x", 1, 4, "ra", "null"}})
	checkWindows(t, empty, r, []winWant{{"x", 1, 4, "null", "ra"}})
	if ws := core.Windows(empty, empty); len(ws) != 0 {
		t.Fatalf("empty inputs made windows: %v", ws)
	}
}

// Exhaustion conditions: RExhausted/SExhausted flip only when both the
// cursor and the valid slot are drained.
func TestAdvancerExhaustion(t *testing.T) {
	r := mkRel("r", [3]interface{}{"x", 1, 10})
	s := mkRel("s", [3]interface{}{"x", 2, 3})
	leaves, err := core.PrepareLeaves([]*relation.Relation{r, s}, nil, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAdvancer(leaves[0], leaves[1])
	if a.RExhausted() || a.SExhausted() {
		t.Fatal("exhausted before any window")
	}
	var n int
	for {
		_, ok := a.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 { // [1,2), [2,3), [3,10)
		t.Fatalf("windows: %d", n)
	}
	if !a.RExhausted() || !a.SExhausted() {
		t.Fatal("not exhausted after drain")
	}
}
