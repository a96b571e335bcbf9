package relation

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/tpset/tpset/internal/interval"
)

// sweepRowsFromRows is SweepRows computed from the rows themselves: per
// fact, the rows of each side and the time from the earliest start to
// the latest end.
func sweepRowsFromRows(x, y *Relation, left bool) int {
	type side struct {
		rows int
		span interval.Interval
	}
	group := func(r *Relation) map[int64]*side {
		out := map[int64]*side{}
		for i, id := range r.FidCol() {
			iv := r.Tuples[i].T
			if g := out[id]; g == nil {
				out[id] = &side{1, iv}
			} else {
				g.rows++
				g.span = interval.Interval{Ts: min(g.span.Ts, iv.Ts), Te: max(g.span.Te, iv.Te)}
			}
		}
		return out
	}
	gx, gy := group(x), group(y)
	n := 0
	if left {
		n = x.Len()
	}
	for id, a := range gx {
		if b := gy[id]; b != nil && a.span.Overlaps(b.span) {
			if !left {
				n += a.rows
			}
			n += b.rows
		}
	}
	return n
}

// TestSweepRowsCountsFromTheIndex checks the engine's sharding bound
// against the rows on random sorted pairs — facts one side lacks, facts
// both hold at the same times and at times apart — for ∩Tp and −Tp, at
// every limit from below to past the bound, and pins that the walk
// allocates nothing.
func TestSweepRowsCountsFromTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		x := randomRel(rng, rng.Intn(300), 1+rng.Intn(30), int64(rng.Intn(8)))
		y := randomRel(rng, rng.Intn(300), 1+rng.Intn(30), int64(rng.Intn(8)))
		// Move a random part of y's facts later in time, past x's.
		shift := map[string]bool{}
		for i := range y.Tuples {
			k := y.Tuples[i].Key()
			if _, seen := shift[k]; !seen {
				shift[k] = rng.Intn(2) == 0
			}
			if shift[k] {
				y.Tuples[i].T.Ts += 10000
				y.Tuples[i].T.Te += 10000
			}
		}
		InternAll(x, y)
		x.Sort()
		y.Sort()
		for _, left := range []bool{false, true} {
			want := sweepRowsFromRows(x, y, left)
			for _, limit := range []int{0, 1, want / 2, want, want + 1, 1 << 30} {
				if got := SweepRows(x.Runs(), y.Runs(), left, limit); got != min(want, limit) {
					t.Fatalf("trial %d, left %v, limit %d: SweepRows = %d, the rows say %d", trial, left, limit, got, want)
				}
			}
		}
	}
	x := randomRel(rng, 2000, 100, 3)
	y := randomRel(rng, 2000, 100, 3)
	InternAll(x, y)
	x.Sort()
	y.Sort()
	rx, ry := x.Runs(), y.Runs()
	if allocs := testing.AllocsPerRun(100, func() { SweepRows(rx, ry, false, 1<<30) }); allocs != 0 {
		t.Fatalf("SweepRows allocated %v times, want none", allocs)
	}
}

// TestSweepRowsMemo pins the bound kept on the left index: a repeat of
// the last question is answered without a walk or an allocation, any
// other question — another right index, another operator or limit, a
// right relation mutated in place — is walked again, and the memo keeps
// no right index alive.
func TestSweepRowsMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x := randomRel(rng, 2000, 100, 3)
	y := randomRel(rng, 2000, 100, 3)
	z := randomRel(rng, 2000, 100, 3)
	InternAll(x, y, z)
	x.Sort()
	y.Sort()
	z.Sort()
	check := func(what string, y *Relation, left bool, limit int) {
		t.Helper()
		if got, want := SweepRows(x.Runs(), y.Runs(), left, limit), min(sweepRowsFromRows(x, y, left), limit); got != want {
			t.Fatalf("%s: SweepRows = %d, the rows say %d", what, got, want)
		}
	}
	check("first", y, false, 1<<30)
	rx, ry := x.Runs(), y.Runs()
	if allocs := testing.AllocsPerRun(100, func() { SweepRows(rx, ry, false, 1<<30) }); allocs != 0 {
		t.Fatalf("a repeated SweepRows allocated %v times, want none", allocs)
	}
	check("another right index", z, false, 1<<30)
	check("back", y, false, 1<<30)
	check("another operator", y, true, 1<<30)
	check("another limit", y, true, 100)
	// Move every row of y later in time and install its column again: y's
	// index is dropped, x's memo stays, and the new index meets x nowhere.
	before, memo := SweepRows(x.Runs(), y.Runs(), false, 1<<30), x.Runs()
	for i := range y.Tuples {
		y.Tuples[i].T.Ts += 1 << 20
		y.Tuples[i].T.Te += 1 << 20
	}
	if err := y.SetBinding(y.Dict(), y.FidCol()); err != nil {
		t.Fatal(err)
	}
	if x.Runs() != memo {
		t.Fatal("x lost its index")
	}
	check("mutated right relation", y, false, 1<<30)
	if before == 0 || SweepRows(x.Runs(), y.Runs(), false, 1<<30) != 0 {
		t.Fatalf("bound %d before the move, %d after; want overlap, then none", before, SweepRows(x.Runs(), y.Runs(), false, 1<<30))
	}

	// A right index the memo names is collected with its relation.
	collected := make(chan struct{})
	func() {
		w := randomRel(rng, 500, 20, 3)
		InternAll(x, w)
		x.Sort()
		w.Sort()
		runtime.SetFinalizer(w.Runs(), func(*Runs) { close(collected) })
		SweepRows(x.Runs(), w.Runs(), false, 1<<30)
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if i == 100 {
			t.Fatal("the right index outlived its relation: the memo keeps it")
		}
	}
}
