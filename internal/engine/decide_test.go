package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref/reftest"
	"github.com/tpset/tpset/internal/relation"
)

// Tests of the sharding decision: shardCount sizes a plan by the rows
// its sweep can read (sweepRows), from the leaves' fact-run indexes. The
// decision is read off the plan's trace — its root is "concat[N shards]"
// when it shards, the root operator when it does not — never off a
// clock.

// rootOp plans q over db at the default minimum partition under a span
// and returns the root's op; the plan is closed without a pull.
func rootOp(t *testing.T, workers int, q string, db map[string]*relation.Relation, opts core.Options) string {
	t.Helper()
	opts.Span = obs.NewSpan("")
	c, err := New(Config{Workers: workers}).Cursor(query.MustParse(q), db, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	return opts.Span.Snapshot().Op
}

// TestShardDecisionOnBenchmarkShapes pins the decision on the standing
// benchmark's plans at their own scale. sparse-stream's r ∩Tp s (Table
// III overlap 0.03, 2×200K tuples: nearly every fact in both relations,
// at different times) reads a few hundred rows and runs sequentially at
// every budget. Every other plan reads what its leaves hold and keeps
// the shard count it had when the engine sized plans by their leaves'
// rows: the sparse pair's ∪Tp and −Tp, dense-stream's three queries
// (overlap 0.8), lib-setops' (a ∪Tp b) −Tp (c ∩Tp d) and
// durable-mixed's p_i −Tp p_j.
func TestShardDecisionOnBenchmarkShapes(t *testing.T) {
	dr, ds := datagen.Pair(datagen.PairConfig{NumTuples: 200000, NumFacts: 2000, MaxLenR: 10, MaxLenS: 10, MaxGap: 3, Seed: 1000})
	catalogStyle(dr, ds)
	sparse, dense := sparsePair(200000), map[string]*relation.Relation{"r": dr, "s": ds}
	a := datagen.Webkit(datagen.WebkitConfig{NumTuples: 100000, Seed: 1000})
	a.Schema.Name = "a"
	lib := map[string]*relation.Relation{"a": a} // in generation order, as tpset.ReadCSVFile returns it
	for i, name := range []string{"b", "c", "d"} {
		lib[name] = datagen.Shifted(a, name, 1001+int64(i))
		lib[name].Schema.Name = name
	}
	p0 := datagen.Synthetic(datagen.SyntheticConfig{Name: "p0", NumTuples: 20000, NumFacts: 200, MaxLen: 10, MaxGap: 3, Seed: 1010})
	p1 := datagen.Synthetic(datagen.SyntheticConfig{Name: "p1", NumTuples: 20000, NumFacts: 200, MaxLen: 10, MaxGap: 3, Seed: 1011})
	catalogStyle(p0, p1)
	durable := map[string]*relation.Relation{"p0": p0, "p1": p1}

	catalog := core.Options{AssumeSorted: true}
	for _, tc := range []struct {
		shape  string
		db     map[string]*relation.Relation
		opts   core.Options
		q      string
		w2, w8 string // the root op at 2 and at 8 workers
	}{
		{"sparse", sparse, catalog, "r & s", "∩Tp", "∩Tp"},
		{"sparse", sparse, catalog, "r | s", "concat[8 shards]", "concat[32 shards]"},
		{"sparse", sparse, catalog, "r - s", "concat[8 shards]", "concat[32 shards]"},
		{"dense", dense, catalog, "r & s", "concat[8 shards]", "concat[32 shards]"},
		{"dense", dense, catalog, "r | s", "concat[8 shards]", "concat[32 shards]"},
		{"dense", dense, catalog, "r - s", "concat[8 shards]", "concat[32 shards]"},
		{"lib", lib, core.Options{}, "(a | b) - (c & d)", "concat[8 shards]", "concat[32 shards]"},
		{"durable", durable, catalog, "p0 - p1", "concat[8 shards]", "concat[19 shards]"},
	} {
		for workers, want := range map[int]string{2: tc.w2, 8: tc.w8} {
			if got := rootOp(t, workers, tc.q, tc.db, tc.opts); got != want {
				t.Errorf("%s %s at %d workers: root %q, want %q", tc.shape, tc.q, workers, got, want)
			}
		}
	}
}

// partlyApart returns a sorted two-relation catalog (r0, r1) on one
// dictionary in which r1 holds about half of the facts the two share at
// the times r0 does and the other half only after r0's last end point:
// some facts' runs overlap in time and the others' do not.
func partlyApart(rng *rand.Rand) map[string]*relation.Relation {
	db := reftest.DB(rng, reftest.Shape{Relations: 2, MaxTuples: 300, Facts: 20, Binding: reftest.Shared})
	later := map[string]bool{}
	for i := range db["r1"].Tuples {
		x := &db["r1"].Tuples[i]
		k := x.Key()
		if _, seen := later[k]; !seen {
			later[k] = rng.Intn(2) == 0
		}
		if later[k] {
			x.T.Ts, x.T.Te = x.T.Ts+1000, x.T.Te+1000
		}
	}
	for _, r := range db {
		r.Sort()
		r.BuildCols()
	}
	return db
}

// sweepRowsFromRows is sweepRows recomputed from the rows: per fact, a
// leaf's rows and the time from its earliest start to its latest end.
func sweepRowsFromRows(n query.Node, db map[string]*relation.Relation) int {
	rows := func(name string) (map[int64]int, map[int64][2]int64) {
		r := db[name]
		count, span := map[int64]int{}, map[int64][2]int64{}
		for i, id := range r.FidCol() {
			iv := r.Tuples[i].T
			sp, ok := span[id]
			if !ok {
				sp = [2]int64{iv.Ts, iv.Te}
			}
			count[id], span[id] = count[id]+1, [2]int64{min(sp[0], iv.Ts), max(sp[1], iv.Te)}
		}
		return count, span
	}
	switch q := n.(type) {
	case *query.Rel:
		return db[q.Name].Len()
	case *query.Select:
		return sweepRowsFromRows(q.Input, db)
	case *query.SetOp:
		l, lok := q.Left.(*query.Rel)
		r, rok := q.Right.(*query.Rel)
		if !lok || !rok || q.Op == core.OpUnion {
			return sweepRowsFromRows(q.Left, db) + sweepRowsFromRows(q.Right, db)
		}
		cx, sx := rows(l.Name)
		cy, sy := rows(r.Name)
		total := 0
		if q.Op == core.OpExcept {
			total = db[l.Name].Len()
		}
		for id, a := range sx {
			if b, ok := sy[id]; ok && a[0] < b[1] && b[0] < a[1] {
				if q.Op == core.OpIntersect {
					total += cx[id]
				}
				total += cy[id]
			}
		}
		return total
	}
	panic(fmt.Sprintf("unknown node %T", n))
}

// TestShardDecisionSumsTheTree pins the bound over whole trees against
// the rows: a leaf counts its rows, a two-leaf ∩Tp or −Tp the rows in
// facts whose runs overlap in time (−Tp's left leaf whole), and every
// other node the sum of its children — so a tree that unions two
// overlapping leaves beside a ∩Tp of two leaves held apart in time is
// sized by the union, and the same tree over the apart pair alone does
// not shard. The tree walk allocates nothing.
func TestShardDecisionSumsTheTree(t *testing.T) {
	apart, overlapping := meetingPair(20000, 100, true), meetingPair(3000, 30, false)
	db := map[string]*relation.Relation{"a": apart["r"], "b": apart["s"], "c": overlapping["r"], "d": overlapping["s"]}
	db["a"].Schema.Name, db["b"].Schema.Name, db["c"].Schema.Name, db["d"].Schema.Name = "a", "b", "c", "d"
	e := New(Config{Workers: 8, MinPartitionSize: 1024})
	for _, tc := range []struct {
		q     string
		bound int
	}{
		{"a & b", 401},              // fact 0: 200 rows of a, 200 of b and the meeting one
		{"a - b", 20000 + 201},      // a whole, and b's rows of fact 0
		{"c & d", 6001},             // every row
		{"(c | d) | (a & b)", 6402}, // 6,001 + 401: the union decides
		{"(a & b) | (a & b)", 802},
		{"(a & b) - (c | d)", 401 + 6001},
		{"sigma[F='f00000'](a) & b", 20000 + 20001}, // over a selection: the children's sum
	} {
		tree := query.MustParse(tc.q)
		if got, rows := sweepRows(tree, db, 1<<30), sweepRowsFromRows(tree, db); got != tc.bound || rows != tc.bound {
			t.Fatalf("%s: bound %d from the index, %d from the rows; want %d", tc.q, got, rows, tc.bound)
		}
		if got, want := e.shardCount(tree, db), min(8*shardsPerWorker, tc.bound/1024); got != want {
			t.Fatalf("%s: %d shards, want %d", tc.q, got, want)
		}
	}
	tree := query.MustParse("(c | d) | ((a & b) - (a | sigma[F='f00001'](b)))")
	if allocs := testing.AllocsPerRun(100, func() { sweepRows(tree, db, 1<<30) }); allocs != 0 {
		t.Fatalf("sweepRows allocated %v times, want none", allocs)
	}
}

// TestPartlyApartPairsMatchOracle runs plans over pairs where some
// facts' runs overlap in time and the others' do not, at one, two and
// eight workers with a small minimum partition: the bound shards some
// of them and not others, and every result must equal the Def. 3
// oracle's and size its shards as the rows say.
func TestPartlyApartPairsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sharded := 0
	for trial := 0; trial < 20; trial++ {
		db := partlyApart(rng)
		for _, q := range []string{"r0 & r1", "r0 - r1", "r1 - r0", "(r0 & r1) | (r1 - r0)", "r0 | r1"} {
			tree := query.MustParse(q)
			for _, workers := range []int{1, 2, 8} {
				e := New(Config{Workers: workers, MinPartitionSize: 16})
				want := 1
				if workers > 1 {
					want = min(workers*shardsPerWorker, sweepRowsFromRows(tree, db)/16)
				}
				if got := e.shardCount(tree, db); got != want && !(got < 2 && want < 2) {
					t.Fatalf("trial %d, %s, workers=%d: %d shards, the rows say %d", trial, q, workers, got, want)
				}
				if want >= 2 {
					sharded++
				}
				got, err := e.EvalCursor(tree, db, core.Options{AssumeSorted: true})
				if err != nil {
					t.Fatal(err)
				}
				reftest.Check(t, fmt.Sprintf("trial %d, %s, workers=%d", trial, q, workers), got, tree, db)
			}
		}
	}
	if sharded == 0 {
		t.Fatal("no plan sharded: the shape exercises only the sequential plan")
	}
}
