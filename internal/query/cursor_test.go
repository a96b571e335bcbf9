package query_test

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// The sweep of BuildCursor plans against the Def. 3 oracle lives in
// internal/engine/oracle_test.go (the engine's sequential path is the
// BuildCursor plan); the tests here pin what is specific to plan
// building.

// TestBuildCursorPreparesLeavesOncePerPlan pins leaf preparation without
// AssumeSorted: a repeating query over relations that share no
// dictionary must still sweep on packed fact ids — every block of the
// plan is bound — because the plan binds its private leaf clones to
// one dictionary, and it must leave the caller's relations as they were:
// the same dictionary, the same column storage, the same rows.
func TestBuildCursorPreparesLeavesOncePerPlan(t *testing.T) {
	tree := query.MustParse("(r0 | r1) - (r0 & r2)")
	for _, binding := range []reftest.Binding{reftest.Unbound, reftest.Mixed} {
		db := reftest.DB(rand.New(rand.NewSource(48)),
			reftest.Shape{Relations: 3, MaxTuples: 300, Facts: 16, Binding: binding})
		dicts := map[string]*keys.Dict{}
		cols := map[string][]int64{}
		firsts := map[string]relation.Tuple{}
		for name, r := range db {
			dicts[name], cols[name], firsts[name] = r.Dict(), r.FidCol(), r.Tuples[0]
		}

		c, err := query.BuildCursor(tree, db, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := relation.New(c.Schema())
		for b := core.NewBatch(64); c.NextBatch(b); {
			if b.Dict == nil || len(b.Fid) != len(b.Tuples) {
				t.Fatalf("binding %d: block at offset %d is not bound", binding, got.Len())
			}
			got.Tuples = append(got.Tuples, b.Tuples...)
		}
		reftest.Check(t, tree.String(), got, tree, db)

		for name, r := range db {
			sameCol := len(r.FidCol()) == len(cols[name]) && (cols[name] == nil || &r.FidCol()[0] == &cols[name][0])
			if r.Dict() != dicts[name] || !sameCol || r.Tuples[0].Lineage != firsts[name].Lineage {
				t.Fatalf("binding %d: plan building modified input relation %s", binding, name)
			}
		}
	}
}

// TestPrepareLeavesFansOutAcrossWorkers pins the exported preparation
// step the engine cuts its shards from: at any worker budget every
// referenced leaf comes back once, as a private copy that is sorted and
// bound to one dictionary shared by all of them; AssumeSorted leaves that already are all that come back as the
// caller's own, others as bound clones in the caller's order; a
// duplicate or an unknown relation fails.
func TestPrepareLeavesFansOutAcrossWorkers(t *testing.T) {
	tree := query.MustParse("(r0 | r1) - (r0 & r2)")
	db := reftest.DB(rand.New(rand.NewSource(49)),
		reftest.Shape{Relations: 4, MaxTuples: 300, Facts: 16, Binding: reftest.Mixed})
	for _, workers := range []int{0, 1, 2, 8} {
		leaves, err := query.PrepareLeaves(tree, db, core.Options{Validate: true}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaves) != 3 {
			t.Fatalf("workers=%d: %d leaves prepared for a query over 3 relations", workers, len(leaves))
		}
		var prepared []*relation.Relation
		for name, r := range leaves {
			if r == db[name] || !r.InCanonicalOrder() || r.FidCol() == nil || r.Len() != db[name].Len() {
				t.Fatalf("workers=%d: leaf %s is not a sorted private clone with its fid column", workers, name)
			}
			prepared = append(prepared, r)
		}
		if relation.SharedDict(prepared...) == nil {
			t.Fatalf("workers=%d: prepared leaves share no dictionary", workers)
		}
	}
	// Prepared leaves qualify as they are; the mixed catalog's do not,
	// and come back as clones in the caller's (generation) order.
	prepared, err := query.PrepareLeaves(tree, db, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := query.PrepareLeaves(tree, prepared, core.Options{Validate: true, AssumeSorted: true}, 4)
	if err != nil || again["r0"] != prepared["r0"] || again["r2"] != prepared["r2"] {
		t.Fatalf("bound AssumeSorted leaves must be the caller's own relations (err %v)", err)
	}
	bound, err := query.PrepareLeaves(tree, db, core.Options{AssumeSorted: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range bound {
		if r == db[name] || r.FidCol() == nil || r.Dict() != bound["r0"].Dict() {
			t.Fatalf("AssumeSorted leaf %s of a mixed catalog is not a bound clone", name)
		}
		for i := range r.Tuples {
			if r.Tuples[i].Lineage != db[name].Tuples[i].Lineage {
				t.Fatalf("AssumeSorted leaf %s was reordered at row %d", name, i)
			}
		}
	}
	dup := db["r1"].Clone()
	dup.Add(dup.Tuples[0])
	if _, err := query.PrepareLeaves(tree, map[string]*relation.Relation{"r0": db["r0"], "r1": dup, "r2": db["r2"]}, core.Options{Validate: true}, 4); err == nil {
		t.Fatal("Validate over a duplicated leaf: want error")
	}
	if _, err := query.PrepareLeaves(query.MustParse("r0 | zz"), db, core.Options{}, 4); err == nil {
		t.Fatal("unknown relation: want error")
	}
}

// TestPrepareLeavesFiltersSelectedLeaves pins which leaves PrepareLeaves
// cuts down as it copies them: one that every occurrence reads through
// a selection, to the rows the selection directly over some occurrence
// keeps, unless it is read in place; one read bare is prepared whole.
// Validate checks a leaf whole before it is cut, so a duplicate among
// the rows the selection drops is still reported. The plan's result is
// the oracle's either way, and a selection naming an attribute the leaf
// lacks is still the plan's error.
func TestPrepareLeavesFiltersSelectedLeaves(t *testing.T) {
	count := func(r *relation.Relation, values ...string) int {
		n := 0
		for i := range r.Tuples {
			for _, v := range values {
				if r.Tuples[i].Fact[0] == v {
					n++
				}
			}
		}
		return n
	}
	for _, binding := range []reftest.Binding{reftest.Unbound, reftest.Mixed, reftest.Shared} {
		db := reftest.DB(rand.New(rand.NewSource(51)),
			reftest.Shape{Relations: 3, MaxTuples: 300, Facts: 8, Binding: binding})
		for _, tc := range []struct {
			src  string
			want map[string]int // leaf rows prepared; -1 for the whole leaf
		}{
			{"sigma[F='f001'](r0) - sigma[F='f002'](sigma[F='f002'](r1))", map[string]int{"r0": count(db["r0"], "f001"), "r1": count(db["r1"], "f002")}},
			{"(sigma[F='f001'](r0) | sigma[F='f003'](r0)) & r1", map[string]int{"r0": count(db["r0"], "f001", "f003"), "r1": -1}},
			{"sigma[F='f001'](r0) | r0", map[string]int{"r0": -1}},
			{"sigma[F='f001'](sigma[F='f002'](r0)) - r2", map[string]int{"r0": count(db["r0"], "f002"), "r2": -1}},
		} {
			q := query.MustParse(tc.src)
			for _, opts := range []core.Options{{}, {Validate: true}} {
				leaves, err := query.PrepareLeaves(q, db, opts, 2)
				if err != nil {
					t.Fatal(err)
				}
				for name, want := range tc.want {
					if want < 0 || binding == reftest.Shared && db[name].InCanonicalOrder() {
						want = db[name].Len()
					}
					if got := leaves[name].Len(); got != want {
						t.Fatalf("binding %d, %s, %+v: leaf %s prepared with %d rows, want %d", binding, tc.src, opts, name, got, want)
					}
				}
				c, err := query.BuildPrepared(q, leaves, opts)
				if err != nil {
					t.Fatal(err)
				}
				reftest.Check(t, tc.src, core.Materialize(c), q, db)
			}
		}
	}
	db := reftest.DB(rand.New(rand.NewSource(52)), reftest.Shape{Relations: 1, MaxTuples: 50, Facts: 4})
	dup := db["r0"].Clone()
	dup.Tuples = append(dup.Tuples, dup.Tuples[0]) // unbinds it: the copy of a row overlaps the row
	q := query.MustParse("sigma[F='none'](r0)")    // keeps no row, the duplicate's least of all
	if _, err := query.PrepareLeaves(q, map[string]*relation.Relation{"r0": dup}, core.Options{Validate: true}, 1); err == nil {
		t.Fatalf("Validate over a leaf cut to none of its rows missed the duplicate of %s", dup.Tuples[0].String())
	}
	if _, err := query.BuildCursor(query.MustParse("sigma[Nope='x'](r0)"), db, core.Options{}); err == nil ||
		!strings.Contains(err.Error(), `no attribute "Nope"`) {
		t.Fatalf("unknown attribute over a filtered leaf: err %v", err)
	}
}

// TestPushDownComputesTheOriginalQuery: the rewritten plan's result is
// the oracle's answer for the query as written, on the paper's data, for
// every operation shape.
func TestPushDownComputesTheOriginalQuery(t *testing.T) {
	db, _ := reftest.Fig1()
	for _, src := range []string{
		"sigma[Product='milk'](c - (a | b))",
		"sigma[Product='chips'](a & c)",
		"sigma[Product='milk'](a - c)",
		"sigma[Product='dates'](a | b | c)",
		"sigma[Product='milk'](sigma[Product='milk'](c) - a)",
		"sigma[Product='nonexistent'](a | c)",
	} {
		orig := query.MustParse(src)
		rewritten := query.PushDown(orig, db)
		c, err := query.BuildCursor(rewritten, db, core.Options{})
		if err != nil {
			t.Fatalf("%s rewritten to %s: %v", src, rewritten, err)
		}
		reftest.Check(t, src+" rewritten to "+rewritten.String(), core.Materialize(c), orig, db)
	}
}

// TestBuildCursorErrors pins the build-time error surface: unknown
// relations, unknown selection attributes and incompatible schemas fail
// at plan construction, sorted inputs or not.
func TestBuildCursorErrors(t *testing.T) {
	db := reftest.DB(rand.New(rand.NewSource(50)), reftest.Shape{Relations: 2, MaxTuples: 5, Facts: 4, Sorted: true})
	db["wide"] = relation.New(relation.NewSchema("wide", "A", "B"))
	for _, opts := range []core.Options{{}, {AssumeSorted: true}} {
		if _, err := query.BuildCursor(&query.Rel{Name: "zz"}, db, opts); err == nil {
			t.Fatal("unknown relation must fail at build time")
		}
		sel := &query.Select{Attr: "Nope", Value: "x", Input: &query.Rel{Name: "r0"}}
		if _, err := query.BuildCursor(sel, db, opts); err == nil {
			t.Fatal("unknown attribute must fail at build time")
		}
		mixed := &query.SetOp{Op: core.OpUnion, Left: &query.Rel{Name: "r0"}, Right: &query.Rel{Name: "wide"}}
		if _, err := query.BuildCursor(mixed, db, opts); err == nil {
			t.Fatal("incompatible schemas must fail at build time")
		}
	}
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
	panic("unknown node")
}

// TestResultNameIsTheConcatenation pins the name a plan gives its result,
// built once from the tree, to the old per-operator concatenation, on the
// oracle harness's random trees and on a selection over an operator (which
// reftest.Tree never generates and PushDown would move).
func TestResultNameIsTheConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := reftest.DB(rng, reftest.Shape{Relations: 3, MaxTuples: 40, Facts: 8})
	trees := []query.Node{query.MustParse("sigma[F='f00001']((r0 | r1) - r2)")}
	for i := 0; i < 200; i++ {
		trees = append(trees, reftest.Tree(rng, query.DBKeys(db), 1+rng.Intn(6)))
	}
	for _, tree := range trees {
		want := concatName(tree, db)
		if got := query.ResultName(tree, db); got != want {
			t.Fatalf("%s: ResultName = %q, want %q", query.Canonical(tree), got, want)
		}
		plan, err := query.BuildCursor(tree, db, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Schema().Name; got != want {
			t.Fatalf("%s: plan names its result %q, want %q", query.Canonical(tree), got, want)
		}
		core.ReleaseCursor(plan)
	}
}

// TestChainPlanNamesItsResultOnce pins what planning a chain of 255
// unions over two 1-tuple relations allocates once the batch pool is
// warm: under 256 KiB. Naming each operator after its children, as plans
// did before the result was named once, allocated ≈390 KB here — ≈200 KB
// of it the chain's names, 6 bytes more at every level (3n² in all).
func TestChainPlanNamesItsResultOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled blocks are reallocated")
	}
	a := relation.New(relation.NewSchema("a", "F"))
	a.AddBase(relation.NewFact("x"), "chain.a1", 0, 5, 0.5)
	b := relation.New(relation.NewSchema("b", "F"))
	b.AddBase(relation.NewFact("x"), "chain.b1", 3, 9, 0.5)
	db := map[string]*relation.Relation{"a": a, "b": b}
	tree := query.MustParse("a" + strings.Repeat(" | b", 255))
	plan := func() {
		c, err := query.BuildCursor(tree, db, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		core.ReleaseCursor(c)
	}
	plan() // warm the batch pool
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plan()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 256<<10 {
		t.Fatalf("planning 255 unions allocated %d bytes, want under 256 KiB", least)
	}
	t.Logf("planning 255 unions: %d bytes", least)
}
