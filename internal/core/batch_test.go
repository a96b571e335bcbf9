package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/relation"
)

// The one pull protocol, stated by type: whatever feeds a plan delivers
// blocks, or does not compile.
var (
	_ Cursor = (*ScanCursor)(nil)
	_ Cursor = (*OpCursor)(nil)
	_ Cursor = (*tracedCursor)(nil)
)

// sortedTestRelation builds a scannable relation — interned, sorted —
// with the given fact runs.
func sortedTestRelation(name string, n, facts int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(relation.NewSchema(name, "F"))
	cursors := make(map[string]int64)
	for i := 0; i < n; i++ {
		f := fmt.Sprintf("f%04d", rng.Intn(facts))
		ts := cursors[f] + int64(rng.Intn(3))
		te := ts + 1 + int64(rng.Intn(4))
		cursors[f] = te
		r.AddBase(relation.NewFact(f), fmt.Sprintf("%s%d", name, i), ts, te, 0.1+0.8*rng.Float64())
	}
	r.Intern()
	r.Sort()
	return r
}

// TestScanBatchZeroCopy pins that scan batches alias the relation's own
// tuple storage and its fid column (three slice-header writes per block,
// no copying), that the sub-windows tile the relation exactly and every
// block is bound — to the relation's dictionary and the relation's own
// column storage — and that a scan over a non-empty unbound relation is
// refused at construction.
func TestScanBatchZeroCopy(t *testing.T) {
	r := sortedTestRelation("r", 2*BatchSize+100, 7, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewScanCursor over an unbound relation did not panic")
			}
		}()
		u := r.Clone()
		u.Unbind()
		NewScanCursor(u)
	}()
	fid := r.FidCol()
	c := NewScanCursor(r)
	b := GetBatch()
	seen := 0
	for c.NextBatch(b) {
		if &b.Tuples[0] != &r.Tuples[seen] {
			t.Fatalf("batch at offset %d does not alias the relation storage", seen)
		}
		if b.Dict != r.Dict() || &b.Fid[0] != &fid[seen] || len(b.Fid) != len(b.Tuples) {
			t.Fatalf("batch at offset %d is not bound to the relation's dictionary and fid column", seen)
		}
		seen += len(b.Tuples)
	}
	PutBatch(b)
	if seen != r.Len() {
		t.Fatalf("batches covered %d tuples, want %d", seen, r.Len())
	}
	// A zero-row relation is vacuously bound: it scans (to nothing)
	// without a dictionary or a column.
	if NewScanCursor(relation.New(r.Schema)).NextBatch(NewBatch(4)) {
		t.Fatal("scan of an empty relation produced a block")
	}
}

// TestScanBatchRespectsCapacity pins sub-window sizing for tiny batch
// capacities and the post-exhaustion contract.
func TestScanBatchRespectsCapacity(t *testing.T) {
	r := sortedTestRelation("r", 10, 3, 2)
	for _, capacity := range []int{1, 2, 3, 1024} {
		c := NewScanCursor(r)
		b := NewBatch(capacity)
		total := 0
		for c.NextBatch(b) {
			if len(b.Tuples) == 0 || len(b.Tuples) > capacity {
				t.Fatalf("cap %d: batch of %d tuples", capacity, len(b.Tuples))
			}
			for i := range b.Tuples {
				if !b.Tuples[i].Fact.Equal(r.Tuples[total+i].Fact) {
					t.Fatalf("cap %d: tuple %d out of order", capacity, total+i)
				}
			}
			total += len(b.Tuples)
		}
		if total != r.Len() {
			t.Fatalf("cap %d: %d tuples, want %d", capacity, total, r.Len())
		}
		if c.NextBatch(b) {
			t.Fatalf("cap %d: NextBatch true after exhaustion", capacity)
		}
	}
}

// TestSkipToFidMatchesLinearScan is the galloping property test: on
// random sorted relations and random probe tuples of the same
// dictionary, SkipToFid over the fid column must return exactly the
// index a linear scan over the rows' key strings finds — the packed
// order IS the canonical fact order — and SkipTo to the probe's
// (fact, start) point the index a linear scan over key strings and end
// points finds.
func TestSkipToFidMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		r := sortedTestRelation("r", 1+rng.Intn(300), 1+rng.Intn(40), int64(trial))
		probe := sortedTestRelation("p", 60, 1+rng.Intn(60), int64(trial)+1000)
		relation.InternAll(r, probe) // order-preserving: both stay sorted
		fid := r.FidCol()
		for i := range probe.Tuples {
			id := probe.FidCol()[i]
			key, ts := probe.Tuples[i].Key(), probe.Tuples[i].T.Ts
			start := rng.Intn(r.Len())
			got := relation.SkipToFid(fid[start:], int64(id))
			want := 0
			for start+want < r.Len() && r.Tuples[start+want].Key() < key {
				want++
			}
			if got != want {
				t.Fatalf("trial %d: SkipToFid from %d for %q: got %d, want %d", trial, start, key, got, want)
			}
			got = relation.SkipTo(fid[start:], r.Tuples[start:], int64(id), ts)
			for start+want < r.Len() && r.Tuples[start+want].Key() == key && r.Tuples[start+want].T.Te <= ts {
				want++
			}
			if got != want {
				t.Fatalf("trial %d: SkipTo from %d for (%q, %d): got %d, want %d", trial, start, key, ts, got, want)
			}
		}
	}
}

// TestScanSkipToAdvancesCursor pins SkipTo/NextBatch interplay on the scan:
// after a skip to a (fact, time) point the first reachable tuple is the
// linear-scan answer — no tuple at or above the point skipped, none
// below it left — for a fact-only skip (relation.MinTime) and for a
// point inside the fact's run.
func TestScanSkipToAdvancesCursor(t *testing.T) {
	r := sortedTestRelation("r", 500, 25, 4)
	fid := r.FidCol()
	target := fid[307]
	for _, te := range []interval.Time{relation.MinTime, r.Tuples[307].T.Ts, r.Tuples[307].T.Te, 1 << 40} {
		c := NewScanCursor(r)
		c.SkipTo(target, te)
		want := 0
		for want < r.Len() && (fid[want] < target || (fid[want] == target && r.Tuples[want].T.Te <= te)) {
			want++
		}
		b := NewBatch(1)
		if !c.NextBatch(b) {
			t.Fatalf("te %d: cursor exhausted after SkipTo", te)
		}
		if got := b.Tuples[0]; !got.Fact.Equal(r.Tuples[want].Fact) || got.T != r.Tuples[want].T {
			t.Fatalf("te %d: SkipTo landed on %s, want %s", te, got, r.Tuples[want])
		}
	}
}

// TestSteadyStateBatchAllocations is the pooling satellite's pin: a
// full batched except-sweep over disjoint-fact inputs — whose output
// reuses the input lineage pointers, so no per-tuple lineage allocation
// is inherent — must run with near-zero per-window allocations once the
// batch pool is warm. Long-running /query/stream sessions hit exactly
// this loop; ~tens of allocations per multi-thousand-window drain means
// the advancer buffers, window scratch and batch blocks are reused, not
// churned.
func TestSteadyStateBatchAllocations(t *testing.T) {
	const n = 4000
	r := sortedTestRelation("r", n, 40, 5)
	s := relation.New(relation.NewSchema("s", "F"))
	for i := 0; i < n; i++ {
		s.AddBase(relation.NewFact(fmt.Sprintf("g%04d", i%40)), fmt.Sprintf("s%d", i), int64(i), int64(i)+2, 0.5)
	}
	relation.InternAll(r, s)
	r.Sort()
	s.Sort()

	drain := func() {
		c, err := NewOpCursor(OpExcept, "", NewScanCursor(r), NewScanCursor(s), Options{LazyProb: true})
		if err != nil {
			t.Fatal(err)
		}
		b := GetBatch()
		total := 0
		for c.NextBatch(b) {
			total += len(b.Tuples)
		}
		PutBatch(b)
		if total == 0 {
			t.Fatal("except over disjoint facts must emit the whole left input")
		}
	}
	drain() // warm the pools
	allocs := testing.AllocsPerRun(10, drain)
	// Plan construction is ~a dozen allocations; per-window steady state
	// must contribute ~nothing. Without pooling/batching this is O(n).
	if allocs > 100 {
		t.Fatalf("steady-state batched drain: %.0f allocs per run for %d windows; want near-zero per window", allocs, n)
	}
}

// TestBatchPoolRoundTrip pins the pool's capacity account: odd-capacity
// batches and the zero Batch are dropped (pooling them would hand later
// GetBatch callers undersized storage), and a full-capacity batch comes
// back empty with its whole row and id storage intact.
func TestBatchPoolRoundTrip(t *testing.T) {
	_, _, _, drops0 := BatchPoolStats()
	PutBatch(NewBatch(7)) // odd capacity: dropped
	PutBatch(&Batch{})    // zero Batch: dropped
	if _, _, _, drops := BatchPoolStats(); drops != drops0+2 {
		t.Fatalf("odd-capacity PutBatch recorded %d drops, want %d", drops-drops0, 2)
	}

	r := sortedTestRelation("r", BatchSize, 9, 8)
	b := GetBatch()
	if b.Cap() != BatchSize || b.Len() != 0 || b.Dict != nil {
		t.Fatalf("pooled batch: cap %d len %d dict %p", b.Cap(), b.Len(), b.Dict)
	}
	b.Dict = r.Dict()
	for i := range r.Tuples {
		b.Append(r.Tuples[i], r.FidCol()[i])
	}
	if b.Dict != r.Dict() || b.Len() != BatchSize || len(b.Fid) != BatchSize {
		t.Fatalf("full fill: len %d, %d ids, dict %p", b.Len(), len(b.Fid), b.Dict)
	}
	PutBatch(b)

	b2 := GetBatch()
	defer PutBatch(b2)
	if b2.Len() != 0 || len(b2.Fid) != 0 || b2.Dict != nil {
		t.Fatalf("re-pooled batch not reset: len %d, %d ids, dict %p", b2.Len(), len(b2.Fid), b2.Dict)
	}
	if cap(b2.Tuples) != BatchSize || cap(b2.Fid) != BatchSize {
		t.Fatalf("re-pooled batch lost storage: caps %d/%d", cap(b2.Tuples), cap(b2.Fid))
	}
}

// TestBatchCapFallback pins Cap's zero-value contract: drained sources
// substitute the zero Batch as an empty placeholder, and its Cap must
// report the default size rather than zero (a zero fill target would
// wedge every fill loop bounded by it).
func TestBatchCapFallback(t *testing.T) {
	if got := (&Batch{}).Cap(); got != BatchSize {
		t.Fatalf("zero Batch Cap() = %d, want %d", got, BatchSize)
	}
	if got := NewBatch(5).Cap(); got != 5 {
		t.Fatalf("NewBatch(5).Cap() = %d, want 5", got)
	}
	if got := GetBatch(); got.Cap() != BatchSize {
		t.Fatalf("pooled Cap() = %d, want %d", got.Cap(), BatchSize)
	} else {
		PutBatch(got)
	}
}

// TestOptionsWorkersResolution pins the Parallelism resolution rule:
// the zero value scales with the hardware, explicit values win, and
// anything below one is sequential.
func TestOptionsWorkersResolution(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(6)
	defer runtime.GOMAXPROCS(old)

	cases := []struct{ parallelism, want int }{
		{0, 6},  // unset: runtime.GOMAXPROCS(0)
		{1, 1},  // explicit sequential
		{-3, 1}, // nonsense: sequential
		{4, 4},  // explicit budget
		{9, 9},  // above GOMAXPROCS is allowed
	}
	for _, tc := range cases {
		if got := (Options{Parallelism: tc.parallelism}).Workers(); got != tc.want {
			t.Fatalf("Parallelism=%d: Workers()=%d, want %d", tc.parallelism, got, tc.want)
		}
	}
}
