package relation

import (
	"fmt"
	"testing"
)

// FuzzSkipToFid is the differential pin on the column gallop — the
// search SkipTo and the fact-run index run over ids: on arbitrary
// fuzzer-derived sorted id columns, it must land on exactly the index a
// linear scan finds — the first entry not below the probe. Deltas are
// cumulated so any byte string yields a valid non-decreasing column; the
// probe covers below-, inside- and past-range targets.
func FuzzSkipToFid(f *testing.F) {
	f.Add([]byte{1, 0, 3, 3, 7}, uint16(2))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{5}, uint16(9))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{15, 15, 15, 1, 1, 1, 0, 2}, uint16(40))
	f.Fuzz(func(t *testing.T, deltas []byte, probe uint16) {
		if len(deltas) > 2048 {
			deltas = deltas[:2048]
		}
		fid := make([]int64, len(deltas))
		var acc int64
		for i, d := range deltas {
			acc += int64(d % 8) // runs of equal ids every few entries
			fid[i] = acc
		}
		target := int64(probe) % (acc + 2) // below, within and past the column
		if got, want := SkipToFid(fid, target), skipLinear(fid, nil, 0, target, MinTime); got != want {
			t.Fatalf("SkipToFid(%v, %d) = %d, want %d", fid, target, got, want)
		}
	})
}

// fuzzBlock decodes fuzzer bytes into the shape of every duplicate-free
// sorted relation: a sorted id column over rows whose intervals, per
// fact, are disjoint and ascending. Each byte is one row: its low two
// bits open a new fact or stay (runs of a few rows per fact), the rest
// are the gap to the previous interval of the fact (0–3, so adjacency
// occurs) and the length. It returns the last fact id and the latest end
// point as the probe ranges.
func fuzzBlock(data []byte) (fid []int64, rows []Tuple, lastFid, maxTe int64) {
	if len(data) > 2048 {
		data = data[:2048]
	}
	fid, rows = make([]int64, len(data)), make([]Tuple, len(data))
	var cursor int64
	for i, d := range data {
		if d&3 == 0 {
			lastFid, cursor = lastFid+1, 0
		}
		ts := cursor + int64(d>>2&3)
		cursor = ts + 1 + int64(d>>4)
		fid[i], rows[i].T.Ts, rows[i].T.Te = lastFid, ts, cursor
		maxTe = max(maxTe, cursor)
	}
	return fid, rows, lastFid, maxTe
}

// fuzzPoint turns fuzzer probes into a (fact, time) point: facts below,
// inside and past the block, times before, inside and past every chain,
// and the minimum time (a fact-only skip) for a negative probe.
func fuzzPoint(probeFact uint16, probeTime int16, lastFid, maxTe int64) (int64, int64) {
	if probeTime < 0 {
		return int64(probeFact) % (lastFid + 2), MinTime
	}
	return int64(probeFact) % (lastFid + 2), int64(probeTime) % (maxTe + 2)
}

// skipLinear is the reference every skip is checked against: the first
// row at or after from that is neither of a smaller fact nor of the
// target fact ending at or before te (rows is not read for MinTime).
func skipLinear(fid []int64, rows []Tuple, from int, target, te int64) int {
	for from < len(fid) && (fid[from] < target || (fid[from] == target && te != MinTime && rows[from].T.Te <= te)) {
		from++
	}
	return from
}

// FuzzSkipTo is the differential pin on the block gallop — the skip over
// computed and copied blocks, which no index describes: on arbitrary
// fuzzBlock blocks the search to a (fact, time) point must land on
// exactly the index the linear scan finds, and on SkipToFid's answer for
// the minimum time.
func FuzzSkipTo(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x26, 0x37, 0x00, 0x41}, uint16(1), int16(5))
	f.Add([]byte{0x00, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11}, uint16(1), int16(6)) // one fact (the Fig. 7 shape), adjacent intervals
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(2), int16(-1))                        // one row per fact, minimum time
	f.Add([]byte{0x01, 0x02, 0x03}, uint16(9), int16(3))                               // target beyond the block
	f.Add([]byte{}, uint16(0), int16(0))                                               // empty block
	f.Add([]byte{0x00, 0x75, 0x75, 0x00, 0x75}, uint16(1), int16(1000))                // time past the fact's chain: into the next fact
	f.Fuzz(func(t *testing.T, data []byte, probeFact uint16, probeTime int16) {
		fid, rows, lastFid, maxTe := fuzzBlock(data)
		target, te := fuzzPoint(probeFact, probeTime, lastFid, maxTe)
		got := SkipTo(fid, rows, target, te)
		if want := skipLinear(fid, rows, 0, target, te); got != want {
			t.Fatalf("SkipTo(%v, %v, %d, %d) = %d, want %d", fid, rows, target, te, got, want)
		}
		if byFid := SkipToFid(fid, target); te == MinTime && got != byFid {
			t.Fatalf("SkipTo(…, %d, MinTime) = %d, SkipToFid = %d", target, got, byFid)
		}
	})
}

// FuzzSkipToIndexed is the differential pin on the fact-run index, the
// skip every scan answers: over a sorted, duplicate-free relation built
// from a fuzzBlock, and over a Slice view of it at an arbitrary
// [lo, hi) — which starts inside a run as often as not — the index must
// describe the column run for run, Runs.Seek from an arbitrary read
// position and hint must land where the linear scan does and return a
// hint the next skip may start from, and Runs.Below must count the rows
// below the fact. Then the relation gains a row of its first fact after
// all others (Add) and is re-sorted (Sort): after each, its index must
// describe the new column, never the one it was built over.
func FuzzSkipToIndexed(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x26, 0x37, 0x00, 0x41}, uint16(1), uint16(5), uint16(1), uint16(0), uint16(1), int16(5))
	f.Add([]byte{0x00, 0x11, 0x11, 0x11, 0x00, 0x11, 0x11, 0x11}, uint16(2), uint16(7), uint16(0), uint16(1), uint16(1), int16(6)) // view starts mid-run
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(0), uint16(4), uint16(2), uint16(3), uint16(2), int16(-1))                        // one row per fact, a stale hint, minimum time
	f.Add([]byte{0x00, 0x75, 0x75, 0x00, 0x75}, uint16(1), uint16(5), uint16(0), uint16(0), uint16(1), int16(1000))                // time past the chain: into the next fact
	f.Add([]byte{0x00, 0x15, 0x15, 0x15}, uint16(3), uint16(3), uint16(0), uint16(0), uint16(1), int16(2))                         // empty view
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), int16(0))                                               // empty relation
	f.Fuzz(func(t *testing.T, data []byte, lo, hi, from, hint, probeFact uint16, probeTime int16) {
		fid, rows, lastFid, maxTe := fuzzBlock(data)
		r := New(NewSchema("r", "F"))
		for i := range rows {
			rows[i].Fact = NewFact(fmt.Sprintf("f%05d", fid[i]))
		}
		r.Tuples = rows
		InternAll(r) // ids are ranks: the block's ids less fid[0]
		n := r.Len()
		target, te := fuzzPoint(probeFact, probeTime, lastFid, maxTe)

		// describes checks the index run for run against the column, and
		// each run's span against its rows: on the relation's own index it
		// is (first Ts, last Te) exactly; on a view it covers the rows the
		// view holds of the run, which At reports whole from the run's own
		// first row only — not from the row 0 of a view cut inside it.
		describes := func(what string, rel *Relation, own, cut bool) {
			t.Helper()
			x, col := rel.Runs(), rel.FidCol()
			want := buildRuns(col, rel.Tuples)
			if x.Len() != want.Len() || x.Row(x.Len()) != len(col) {
				t.Fatalf("%s: index of %d runs over %d rows, the column has %d runs over %d rows", what, x.Len(), x.Row(x.Len()), want.Len(), len(col))
			}
			for k := range want.Len() {
				if x.fid[k] != want.fid[k] || x.Row(k) != want.Row(k) {
					t.Fatalf("%s: run %d is fact %d from row %d, the column says fact %d from row %d", what, k, x.fid[k], x.Row(k), want.fid[k], want.Row(k))
				}
				lo, hi := x.Row(k), x.Row(k+1)
				fid, span := x.Run(k)
				first := rel.Tuples[lo].T.Ts
				last := rel.Tuples[hi-1].T.Te
				if own && (span.Ts != first || span.Te != last) {
					t.Fatalf("%s: run %d spans %v, its rows run from Ts %d to Te %d", what, k, span, first, last)
				}
				for i := lo; i < hi; i++ {
					if iv := rel.Tuples[i].T; iv.Ts < span.Ts || iv.Te > span.Te {
						t.Fatalf("%s: row %d %v of run %d lies outside its span %v", what, i, iv, k, span)
					}
				}
				// whole is what the sweep trusts the span's Ts for.
				if run, whole := x.At(lo, k/2); fid != want.fid[k] || run != k || whole == (cut && k == 0) || whole && span.Ts != first {
					t.Fatalf("%s: At(%d) = run %d, whole %v; the run is %d of fact %d, spanning %v", what, lo, run, whole, k, fid, span)
				}
				if run, whole := x.At(hi-1, k); hi-1 > lo && (run != k || whole) {
					t.Fatalf("%s: At(%d) = run %d, whole %v inside run %d", what, hi-1, run, whole, k)
				}
			}
		}
		check := func(what string, rel *Relation, own, cut bool, from, hint int) {
			t.Helper()
			describes(what, rel, own, cut)
			x, col := rel.Runs(), rel.FidCol()
			from = min(from, len(col))
			got, run := x.Seek(rel.Tuples, from, hint, target, te)
			if want := skipLinear(col, rel.Tuples, from, target, te); got != want {
				t.Fatalf("%s: Seek(from %d, hint %d, %d, %d) = %d, want %d", what, from, hint, target, te, got, want)
			}
			if run < 0 || run > x.Len() || x.Row(run) > got {
				t.Fatalf("%s: Seek landed on row %d and returned run %d, which starts at row %d", what, got, run, x.Row(min(max(run, 0), x.Len())))
			}
			if got, want := x.Below(target), skipLinear(col, nil, 0, target, MinTime); got != want {
				t.Fatalf("%s: Below(%d) = %d, want %d", what, target, got, want)
			}
			if k := min(hint, x.Len()); x.Row(x.Find(k, target)) != skipLinear(col, nil, x.Row(k), target, MinTime) {
				t.Fatalf("%s: Find(%d, %d) lands on row %d, want %d", what, k, target, x.Row(x.Find(k, target)), skipLinear(col, nil, x.Row(k), target, MinTime))
			}
		}

		check("relation", r, true, false, int(from), int(hint))
		a, b := min(int(lo)%(n+1), int(hi)%(n+1)), max(int(lo)%(n+1), int(hi)%(n+1))
		v := r.Slice(a, b)
		cut := a > 0 && a < b && fid[a-1] == fid[a]
		check(fmt.Sprintf("view [%d, %d)", a, b), v, false, cut, int(from), int(hint))
		if n == 0 {
			return
		}
		r.Add(NewBase(r.Tuples[0].Fact, "late", maxTe+1, maxTe+2, 0.5))
		if r.Dict() == nil || r.InCanonicalOrder() == (n > 0 && fid[0] != fid[n-1]) {
			t.Fatalf("the added row of the first fact should keep the binding and break the order only when there is a later fact")
		}
		describes("relation after Add", r, true, false) // out of order when the first fact is not the last: describes, cannot answer
		r.Sort()
		check("relation after Sort", r, true, false, int(from), int(hint))
		check(fmt.Sprintf("view [%d, %d) after its parent changed", a, b), v, false, cut, int(from), int(hint))
	})
}

// walkStepwise is the reference WalkApart is checked against: the four
// rules of the sweep's run skipping, one at a time, each fact skip a
// linear scan to the first run not below the other side's fact.
func walkStepwise(x *Runs, i int, y *Runs, j int, skipX, skipY bool) (int, int, int64, int64) {
	var nx, ny int64
	for i < x.Len() && j < y.Len() {
		a, sa := x.Run(i)
		b, sb := y.Run(j)
		switch {
		case a < b && skipX:
			for i < x.Len() && x.fid[i] < b {
				i++
			}
			nx++
		case b < a && skipY:
			for j < y.Len() && y.fid[j] < a {
				j++
			}
			ny++
		case a == b && skipY && sb.Te <= sa.Ts:
			j, ny = j+1, ny+1
		case a == b && skipX && sa.Te <= sb.Ts:
			i, nx = i+1, nx+1
		default:
			return i, j, nx, ny
		}
	}
	return i, j, nx, ny
}

// sweepRowsMerge is SweepRows' count as one merge of the two id arrays
// of its own: a fact both hold with overlapping spans counts its rows.
func sweepRowsMerge(x, y *Runs, left bool, limit int) int {
	n := 0
	if left {
		n = x.rows
	}
	for i, j := 0, 0; n < limit && i < len(x.fid) && j < len(y.fid); {
		switch a, b := x.fid[i], y.fid[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			if x.span[i].Overlaps(y.span[j]) {
				if !left {
					n += x.Row(i+1) - x.Row(i)
				}
				n += y.Row(j+1) - y.Row(j)
			}
			i, j = i+1, j+1
		}
	}
	return min(n, limit)
}

// FuzzWalkApart is the differential pin on the walk the sweep's run
// skipping and the shard decision share. Two sorted relations are built
// from fuzzBlocks over one dictionary — the second shifted in time, so
// that the runs of a fact both hold meet or lie apart — and each is read
// whole or as a Slice view, which may start inside a run. From any pair
// of start runs and under any skip flags, WalkApart must stop on the
// runs the stepwise reference stops on, after as many steps on each
// side; SweepRows must count, at any limit, what one merge of the two
// id arrays counts.
func FuzzWalkApart(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x26, 0x00, 0x37}, []byte{0x00, 0x15, 0x00, 0x41}, uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(3), uint16(1<<15))
	f.Add([]byte{0x00, 0x11, 0x11, 0x00, 0x11, 0x00}, []byte{0x00, 0x11, 0x00, 0x11, 0x11}, uint8(40), uint16(1), uint16(9), uint16(0), uint16(1), uint8(1), uint16(7)) // s apart in time, only x skips
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, []byte{0x00, 0x00}, uint8(1), uint16(2), uint16(2), uint16(1), uint16(0), uint8(2), uint16(3))                                // one row per fact, views cut mid-relation
	f.Add([]byte{}, []byte{0x00, 0x75}, uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(3), uint16(0))                                                      // an empty side
	f.Fuzz(func(t *testing.T, dx, dy []byte, shift uint8, cutX, cutY, startX, startY uint16, skips uint8, limit uint16) {
		build := func(name string, data []byte, shift int64) *Relation {
			fid, rows, _, _ := fuzzBlock(data)
			r := New(NewSchema(name, "F"))
			for i := range rows {
				rows[i].Fact = NewFact(fmt.Sprintf("f%05d", fid[i]))
				rows[i].T.Ts += shift
				rows[i].T.Te += shift
			}
			r.Tuples = rows
			return r
		}
		rx, ry := build("x", dx, 0), build("y", dy, int64(shift))
		InternAll(rx, ry)
		view := func(r *Relation, cut uint16) *Relation {
			if cut == 0 {
				return r
			}
			n := r.Len()
			a, b := int(cut)%(n+1), int(cut>>8)%(n+1)
			return r.Slice(min(a, b), max(a, b))
		}
		vx, vy := view(rx, cutX), view(ry, cutY)
		x, y := vx.Runs(), vy.Runs()
		i, j := int(startX)%(x.Len()+1), int(startY)%(y.Len()+1)
		skipX, skipY := skips&1 != 0, skips&2 != 0
		gi, gj, gx, gy := WalkApart(x, i, y, j, skipX, skipY)
		wi, wj, wx, wy := walkStepwise(x, i, y, j, skipX, skipY)
		if gi != wi || gj != wj || gx != wx || gy != wy {
			t.Fatalf("WalkApart from runs (%d, %d), skips (%v, %v) = runs (%d, %d) after (%d, %d) steps; the stepwise rules reach (%d, %d) after (%d, %d)",
				i, j, skipX, skipY, gi, gj, gx, gy, wi, wj, wx, wy)
		}
		for _, left := range []bool{false, true} {
			lim := int(limit) % (vx.Len() + vy.Len() + 2)
			if got, want := sweepRows(x, y, left, lim), sweepRowsMerge(x, y, left, lim); got != want {
				t.Fatalf("sweepRows(left %v, limit %d) = %d, the merge counts %d", left, lim, got, want)
			}
		}
	})
}
