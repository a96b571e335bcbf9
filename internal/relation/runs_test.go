package relation

import (
	"math/rand"
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
